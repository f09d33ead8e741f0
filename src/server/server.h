#ifndef HETDB_SERVER_SERVER_H_
#define HETDB_SERVER_SERVER_H_

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "placement/strategy_runner.h"
#include "server/admission.h"

namespace hetdb {

/// Per-submission knobs a client hands the session layer. Everything is
/// optional: a default-constructed SubmitOptions is a plain best-effort
/// query with server-created stats.
struct SubmitOptions {
  /// Live token lets the client abort the query — queued or running.
  CancelToken cancel;
  /// Absolute SLO deadline. Admission sheds the query up front when the
  /// deadline is unmeetable; the executor enforces it mid-flight.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Pass a stats object to read attribution back (EXPLAIN ANALYZE); when
  /// null the server creates one so flight-recorder summaries stay complete.
  QueryStatsPtr stats;
  /// Query name for stats / flight-recorder summaries (e.g. "Q3.2").
  std::string name;
  /// WDRR cost units charged against the tenant's deficit.
  double cost = 1.0;

  SubmitOptions WithDeadlineIn(std::chrono::microseconds budget) const {
    SubmitOptions copy = *this;
    copy.deadline = std::chrono::steady_clock::now() + budget;
    return copy;
  }
};

struct ServerOptions {
  Strategy strategy = Strategy::kDataDrivenChopping;
  AdmissionOptions admission;
  /// Dispatcher threads draining the admission queue. 0 = one per
  /// max_concurrency slot, so the governor limit — not thread supply — is
  /// always the binding constraint.
  int dispatchers = 0;
  /// Steer the concurrency governor by the engine's thrashing detector and
  /// device circuit breaker. Off = fixed limit (tests inject their own
  /// signals through AdmissionOptions instead).
  bool governor_follows_engine = true;
  /// Wall-clock budget of a hedge, in milliseconds (0 = unbounded). Hedged
  /// re-execution is always on: a dispatched query that dies for an
  /// engine-side reason (watchdog kill, device lost/aborted mid-query) is
  /// replayed once on the CPU-only path before its future is settled — the
  /// client sees a late answer instead of an infrastructure error. Client
  /// cancels and shed queries are never hedged. The budget is checked before
  /// each of the replay's operators: a replay that runs past it returns
  /// Cancelled. The replay ignores the original deadline — by
  /// the time a hedge runs the SLO is already lost; the hedge is about
  /// availability, not latency.
  double hedge_budget_ms = 5000.0;
};

class Server;

/// A client's handle onto the server: a tenant binding plus submit calls.
/// Sessions are cheap and thread-compatible (one thread per session; open
/// more sessions for more threads). Obtained from Server::OpenSession.
class Session {
 public:
  /// Queues a planned query for admission. The future resolves with the
  /// result, an error, Cancelled, or ResourceExhausted("shed: ...").
  std::future<Result<TablePtr>> Submit(PlanNodePtr plan,
                                       SubmitOptions options = {});
  /// Parses + plans `sql` against the server's database, then Submit()s.
  /// Parse/plan errors fail the future immediately (never admitted).
  std::future<Result<TablePtr>> SubmitSql(const std::string& sql,
                                          SubmitOptions options = {});

  /// Submit-and-wait conveniences.
  Result<TablePtr> Execute(PlanNodePtr plan, SubmitOptions options = {});
  Result<TablePtr> ExecuteSql(const std::string& sql,
                              SubmitOptions options = {});

  const std::string& tenant() const { return tenant_; }
  Server& server() { return *server_; }

 private:
  friend class Server;
  Session(Server* server, std::string tenant)
      : server_(server), tenant_(std::move(tenant)) {}

  Server* server_;
  std::string tenant_;
};
using SessionPtr = std::shared_ptr<Session>;

/// The concurrent serving front-end: sessions feed a central
/// AdmissionController; a pool of dispatcher threads drains it into one
/// shared StrategyRunner (whose chopping pools remain the per-processor
/// operator bound from the paper). The admission layer adds what the
/// executor alone cannot: per-tenant fairness, a load-adaptive cap on
/// *queries* in flight, and SLO-aware shedding before any device resource
/// is touched.
class Server {
 public:
  explicit Server(EngineContext* ctx, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void RegisterTenant(const TenantSpec& spec);
  SessionPtr OpenSession(const std::string& tenant = "default");

  /// Session-independent submit (the sessions call this).
  std::future<Result<TablePtr>> Submit(const std::string& tenant,
                                       PlanNodePtr plan,
                                       SubmitOptions options);

  /// Sheds everything queued, fails future submits, joins dispatchers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  AdmissionController& admission() { return admission_; }
  StrategyRunner& runner() { return runner_; }
  EngineContext& ctx() { return *ctx_; }
  const ServerOptions& options() const { return options_; }

  /// Hedged CPU replays attempted / that produced a result (diagnostics and
  /// the availability bench's accounting).
  uint64_t hedge_attempts() const {
    return hedge_attempts_.load(std::memory_order_relaxed);
  }
  uint64_t hedge_successes() const {
    return hedge_successes_.load(std::memory_order_relaxed);
  }

 private:
  void DispatcherLoop();
  /// One bounded CPU-only replay of `plan`; updates hedge counters and the
  /// flight recorder. `reason` labels the records.
  Result<TablePtr> HedgeReplay(const PlanNodePtr& plan,
                               const std::string& name, uint64_t query_id,
                               const std::string& reason);

  EngineContext* ctx_;
  ServerOptions options_;
  StrategyRunner runner_;
  /// CPU-only replay vehicle for hedged re-execution: it runs inline on the
  /// dispatcher thread, starts no pool and uses no device resources — it
  /// cannot be hurt by whatever killed the original.
  StrategyRunner hedge_runner_;
  AdmissionController admission_;
  std::atomic<uint64_t> hedge_attempts_{0};
  std::atomic<uint64_t> hedge_successes_{0};
  std::vector<std::thread> dispatchers_;
};

}  // namespace hetdb

#endif  // HETDB_SERVER_SERVER_H_
