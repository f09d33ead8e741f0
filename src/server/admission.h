#ifndef HETDB_SERVER_ADMISSION_H_
#define HETDB_SERVER_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/chopping_executor.h"
#include "fault/circuit_breaker.h"
#include "operators/plan_node.h"
#include "telemetry/detector.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"

namespace hetdb {

/// One tenant of the serving front-end: a name, a weighted-fair-queueing
/// weight, and a bound on its admission queue (overflow is shed).
struct TenantSpec {
  std::string name;
  double weight = 1.0;
  size_t max_queue = 1024;
};

/// Engine-health signals the concurrency governor steers by. Sampled from
/// the thrashing detector and the device circuit breaker — the PR-6/PR-5
/// instruments that already classify the paper's overload failure modes.
struct GovernorSignals {
  ThrashingDetector::State thrash = ThrashingDetector::State::kCalm;
  DeviceCircuitBreaker::State breaker = DeviceCircuitBreaker::State::kClosed;
  /// Brownout ladder level (0 = normal .. 3 = survival). L2+ throttles like
  /// thrashing (halve), L1 like pressure (decrement) — intake slows in step
  /// with the engine-side degradation instead of fighting it.
  int brownout_level = 0;
};

/// A query waiting for admission: the plan, its lifecycle controls (cancel
/// token, deadline, stats — QueryControls is the same struct the executor
/// consumes), and the promise the serving layer settles with the outcome.
struct QueuedQuery {
  std::string tenant;
  PlanNodePtr plan;
  QueryControls controls;
  std::promise<Result<TablePtr>> promise;
  std::chrono::steady_clock::time_point enqueued_at{};
  /// WDRR cost units. 1.0 = fair by query count; a cost model estimate
  /// turns the scheduler into fair-by-work.
  double cost = 1.0;
};
using QueuedQueryPtr = std::unique_ptr<QueuedQuery>;

struct AdmissionOptions {
  /// Concurrency-limit governor bounds (queries in flight, not operators —
  /// the chopping pools bound operators). AIMD between min and max.
  int min_concurrency = 1;
  int max_concurrency = 32;
  int initial_concurrency = 8;
  /// Completions between governor adjustments (lower = more reactive).
  int governor_period = 4;
  /// Bootstrap service-time estimate before any query completed.
  double initial_service_micros = 1000.0;
};

/// Central admission controller of the serving front-end.
///
/// Three cooperating mechanisms, all under one mutex:
///
///  * **Per-tenant fair queueing** — weighted deficit round-robin over
///    per-tenant FIFO queues: each round a tenant's deficit grows by its
///    weight and it may dispatch queries until the deficit is spent, so a
///    tenant flooding the front door cannot starve the others (its surplus
///    just queues and eventually sheds against its own bound).
///  * **Concurrency-limit governor** — an AIMD limit on queries in flight,
///    steered by one severity, the worst of the thrashing detector, the
///    device circuit breaker and the brownout level (capped at 2): 0 grows
///    the limit by one, 1 (heap pressure, a half-open breaker, L1) shrinks
///    it by one, 2 (thrashing, an open breaker, L2+) halves it. This
///    closes the paper's loop one level up: the detector that recognizes
///    fig-2/fig-5 collapse now throttles the *source* of the load.
///  * **Load shedding** — a query is rejected at admission (promise settled
///    with ResourceExhausted, stats marked with the `shed` outcome) when its
///    tenant queue is full or when its QueryControls deadline cannot be met
///    by the current queue-wait + EWMA service estimate. A shed query never
///    reaches an executor, so it holds no device resources by construction.
///
/// Thread-safe. Dispatcher threads loop on Take()/OnComplete(); any thread
/// may Offer().
class AdmissionController {
 public:
  /// `signals` supplies governor inputs (typically reading the engine's
  /// detector + breaker); when empty the governor sees permanent calm.
  /// `registry`/`recorder` (optional) receive admission metrics and
  /// state-transition / shed records.
  AdmissionController(const AdmissionOptions& options,
                      MetricRegistry* registry = nullptr,
                      FlightRecorder* recorder = nullptr,
                      std::function<GovernorSignals()> signals = {});
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Registers (or re-weights) a tenant. Unknown tenants encountered by
  /// Offer() are auto-registered with weight 1.
  void RegisterTenant(const TenantSpec& spec);

  /// Queues the query, or sheds it (settling its promise and marking its
  /// stats `shed`). Returns true when queued.
  bool Offer(QueuedQueryPtr query);

  /// Blocks until a query is dispatched under the WDRR policy and an
  /// in-flight slot below the governor limit is held, or Stop() was called
  /// (returns nullptr). Queries found cancelled or past-deadline at
  /// dispatch are settled internally and never returned. Call OnComplete()
  /// exactly once per non-null Take().
  QueuedQueryPtr Take();

  /// Releases the in-flight slot of a Take()n query, feeds the service-time
  /// EWMA, and periodically lets the governor adjust the concurrency limit.
  void OnComplete(bool ok, int64_t service_micros);

  /// Wakes all Take() waiters with nullptr and sheds every queued query
  /// ("server shutting down"). Idempotent.
  void Stop();

  int concurrency_limit() const;
  int in_flight() const;
  size_t queued() const;
  double ewma_service_micros() const;
  uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }
  uint64_t shed_total() const {
    return shed_total_.load(std::memory_order_relaxed);
  }

  /// Sheds `query` outside the controller (the server uses this for
  /// dispatch-time rejections): marks stats shed, settles the promise with
  /// ResourceExhausted("shed: ..."), records telemetry.
  void Shed(QueuedQuery& query, const std::string& reason);

 private:
  struct TenantState {
    TenantSpec spec;
    std::deque<QueuedQueryPtr> queue;
    double deficit = 0;
    bool active = false;   ///< present in the round-robin ring
    bool charged = false;  ///< received its quantum for the current visit
    Counter* admitted = nullptr;
    Counter* shed = nullptr;
    Counter* completed = nullptr;
  };

  TenantState& TenantLocked(const std::string& name);
  void ShedLocked(QueuedQuery& query, const std::string& reason);
  void DeactivateLocked(TenantState* tenant);
  void AdjustLimitLocked();
  /// Queue-wait + service estimate for a query `tenant` offers, micros.
  double EstimatedLatencyLocked(const TenantState& tenant) const;
  void PublishDepthLocked();

  const AdmissionOptions options_;
  MetricRegistry* const registry_;
  FlightRecorder* const recorder_;
  const std::function<GovernorSignals()> signals_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;
  std::map<std::string, TenantState> tenants_;
  std::deque<TenantState*> round_robin_;
  size_t queued_ = 0;
  int in_flight_ = 0;
  int limit_ = 0;
  double ewma_service_micros_ = 0;
  int completions_since_adjust_ = 0;
  // Atomic so the brownout controller's admission probe can read them
  // without taking this controller's mutex (writes stay mutex-guarded).
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> shed_total_{0};
  bool stopped_ = false;

  // Registry-backed (optional) instruments, resolved once.
  Counter* offered_counter_ = nullptr;
  Counter* admitted_counter_ = nullptr;
  Counter* shed_counter_ = nullptr;
  Counter* completed_counter_ = nullptr;
  Counter* failed_counter_ = nullptr;
  Gauge* limit_gauge_ = nullptr;
  Gauge* depth_gauge_ = nullptr;
  Gauge* in_flight_gauge_ = nullptr;
};

}  // namespace hetdb

#endif  // HETDB_SERVER_ADMISSION_H_
