#ifndef HETDB_ENGINE_CHOPPING_EXECUTOR_H_
#define HETDB_ENGINE_CHOPPING_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "engine/engine_context.h"
#include "engine/operator_executor.h"
#include "operators/plan_node.h"

namespace hetdb {

/// Run-time operator placement callback. Invoked when an operator becomes
/// ready (all children materialized), with the children's results — so the
/// placer sees exact input cardinalities and current device residency.
using RuntimePlacer = std::function<ProcessorKind(
    const PlanNode& node, const std::vector<OperatorResult*>& inputs,
    EngineContext& ctx)>;

/// Per-query lifecycle controls: a cancel token the client may fire at any
/// time and an optional absolute deadline. Both are checked before every
/// operator runs (on the pools: when it is scheduled and again when a worker
/// picks it up); a query that trips either fails promptly with Cancelled and
/// releases its device-held intermediates.
struct QueryControls {
  CancelToken cancel;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Per-query resource attribution (EXPLAIN ANALYZE, workload breakdowns).
  /// Optional: when null the executor creates its own, so flight-recorder
  /// summaries stay complete; pass one to read the stats back afterwards.
  QueryStatsPtr stats;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// The paper's *query chopping* executor (Section 5.2).
///
/// Queries are chopped into their operators: leaf operators enter the global
/// operator stream immediately; every other operator inserts itself once all
/// its children have completed. A run-time placer assigns each ready
/// operator to a processor's *ready queue*, from which that processor's pool
/// of worker threads pulls work. The pool sizes bound the number of
/// concurrently *running* operators per processor — the GPU pool size is the
/// knob that prevents heap contention. Plain run-time placement without
/// concurrency limiting (Section 4) is this executor with a large GPU pool.
///
/// Operators that abort on the device are restarted on the CPU by the worker
/// immediately (transient faults get a bounded device retry first, see
/// ExecuteWithFallback), and — because placement happens at run time — their
/// successors will see a host-resident input and naturally stay on the CPU
/// (Figure 8, right side).
///
/// `ExecuteInline` runs the same task graph without the pools: operator at a
/// time on the calling thread, each child subtree of an n-ary operator on a
/// thread of its own (CoGaDB's inter-operator parallelism, Section 2.5). The
/// compile-time strategies run this way, with a placer that replays their
/// precomputed placement. Both entry points share the query setup (stats,
/// brownout template vote, watchdog registration), the placement step
/// (placer, brownout pinning, device pick) and the operator step (cancel and
/// deadline check, DoP token and brownout cap, ExecuteWithFallback, root
/// copy-back).
///
/// Lifecycle guarantees:
///  * every future returned by Submit resolves — with the query's result, a
///    clean error, or Cancelled — never std::future_error/broken_promise;
///  * a failed/cancelled query's device-held intermediates are released as
///    its remaining tasks drain, not deferred to executor teardown;
///  * the destructor fails all pending and in-flight queries with Cancelled
///    and joins every worker.
class ChoppingExecutor {
 public:
  /// Starts `cpu_workers` CPU workers and `gpu_workers` workers per device,
  /// named "hetdb-cpu" and "hetdb-gpu<device>". With both zero the executor
  /// starts no thread and serves ExecuteInline only.
  explicit ChoppingExecutor(EngineContext* ctx, int cpu_workers = 0,
                            int gpu_workers = 0);
  ~ChoppingExecutor();

  ChoppingExecutor(const ChoppingExecutor&) = delete;
  ChoppingExecutor& operator=(const ChoppingExecutor&) = delete;

  /// Chops the query and inserts its leaves into the operator stream.
  /// Requires worker pools.
  std::future<Result<TablePtr>> Submit(PlanNodePtr root, RuntimePlacer placer,
                                       QueryControls controls = {});

  /// Submit and wait.
  Result<TablePtr> ExecuteQuery(PlanNodePtr root, RuntimePlacer placer,
                                QueryControls controls = {});

  /// Runs the query to completion on the calling thread (plus one thread per
  /// child subtree of each n-ary operator); an operator whose device attempt
  /// aborts restarts on the CPU while its successors keep what `placer`
  /// gives them.
  Result<TablePtr> ExecuteInline(PlanNodePtr root, RuntimePlacer placer,
                                 QueryControls controls = {});

  int cpu_workers() const { return cpu_workers_; }
  int gpu_workers() const { return gpu_workers_; }

 private:
  struct QueryExec;

  /// One plan operator within one submitted query.
  struct OpTask {
    const PlanNode* node = nullptr;
    OpTask* parent = nullptr;
    std::vector<OpTask*> children;
    std::atomic<int> pending_children{0};
    OperatorResult result;
    ProcessorKind assigned = ProcessorKind::kCpu;
    /// Target co-processor when `assigned == kGpu` (sharding policy pick).
    int device = 0;
    double load_estimate_micros = 0;
    NodeStats* stats = nullptr;  ///< this operator's attribution slot
    /// When the task entered its ready queue (queue-wait measurement).
    std::chrono::steady_clock::time_point ready_at{};
  };

  struct QueryExec {
    PlanNodePtr root;
    RuntimePlacer placer;
    QueryControls controls;
    std::promise<Result<TablePtr>> promise;
    /// Declared before `tasks` so attributed device allocations held by task
    /// results are destroyed while the stats object is still alive.
    QueryStatsPtr stats;
    std::vector<std::unique_ptr<OpTask>> tasks;
    std::atomic<bool> failed{false};
    /// Guards the promise: exactly one of {root success, FailQuery} wins.
    std::atomic<bool> done{false};
    uint64_t query_id = 0;  ///< stamps this query's trace spans
    /// Sharding home (largest scan's affinity device); biases every device
    /// pick so the query's tasks stay on one device.
    int home_device = -1;
    /// Plan-template fingerprint (op shapes + base columns), the brownout
    /// controller's hot-template key.
    uint64_t template_fp = 0;
    /// Submit-time brownout verdict: false pins every operator of this query
    /// to the CPU (L2 cold-template pinning / L3 survival mode).
    bool device_allowed = true;
  };

  using QueryExecPtr = std::shared_ptr<QueryExec>;

  /// Query setup shared by both entry points: stats, brownout template
  /// vote, watchdog registration, and the task graph (root first).
  QueryExecPtr StartQuery(PlanNodePtr root, RuntimePlacer placer,
                          QueryControls controls);
  /// Non-OK when the query must stop: already failed, cancelled, or past
  /// its deadline (fails the query as a side effect in the latter cases).
  Status CheckRunnable(const QueryExecPtr& query);
  /// The child results `task` consumes.
  static std::vector<OperatorResult*> TaskInputs(const OpTask* task);
  /// Releases the child results `task` would have consumed — it is their
  /// sole consumer, and it will never run.
  static void ReleaseTaskInputs(OpTask* task);

  /// Sets `task->assigned` and `task->device`: the placer's choice, pinned
  /// to the CPU by brownout, then a device pick (none admits: the CPU).
  void PlaceTask(const QueryExecPtr& query, OpTask* task);
  /// Runs a placed task's operator on the calling thread, releases its
  /// inputs, and — for the root — copies the result back and settles the
  /// query. Returns false when the query failed.
  bool RunOperator(const QueryExecPtr& query, OpTask* task);

  /// Places a ready task and pushes it into the chosen ready queue.
  void ScheduleTask(const QueryExecPtr& query, OpTask* task);
  void WorkerLoop(int queue_index);
  void RunTask(const QueryExecPtr& query, OpTask* task, ProcessorKind kind);
  /// ExecuteInline's walk: children first, then `task` itself.
  void RunSubtree(const QueryExecPtr& query, OpTask* task);
  void FailQuery(const QueryExecPtr& query, const Status& status);

  /// Ready-queue index: 0 is the CPU queue, 1 + d is device d's queue —
  /// each device has its own queue and its own pool of `gpu_workers_`
  /// threads, so a slow or tripped device cannot head-of-line-block work
  /// bound for its siblings.
  static int QueueIndex(ProcessorKind kind, int device) {
    return kind == ProcessorKind::kCpu ? 0 : 1 + device;
  }

  EngineContext* ctx_;
  const int cpu_workers_;
  const int gpu_workers_;

  std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::vector<std::deque<std::pair<QueryExecPtr, OpTask*>>> ready_queues_;
  bool shutting_down_ = false;
  /// Every submitted query, so the destructor can fail stragglers whose
  /// promise was never settled. Expired entries are pruned on Submit.
  std::vector<std::weak_ptr<QueryExec>> live_queries_;

  std::vector<std::thread> workers_;
};

}  // namespace hetdb

#endif  // HETDB_ENGINE_CHOPPING_EXECUTOR_H_
