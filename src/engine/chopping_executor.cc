#include "engine/chopping_executor.h"

#include <pthread.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

namespace {

/// Stable fingerprint of the plan *template*: the operator shapes plus the
/// base columns the scans read. Two executions of the same SSB query hash
/// identically; two different templates almost surely do not. This is the
/// brownout controller's hot-template key (L2 pins cold templates to the
/// CPU), so it deliberately ignores runtime state like cardinalities.
uint64_t PlanTemplateFingerprint(const PlanNode& root) {
  uint64_t fingerprint = 1469598103934665603ull;  // FNV offset basis
  const std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    fingerprint = (fingerprint ^ static_cast<uint64_t>(node.op())) *
                  1099511628211ull;
    if (node.op() == PlanOp::kScan) {
      const auto& scan = static_cast<const ScanNode&>(node);
      for (const auto& [key, column] : scan.base_columns()) {
        fingerprint = (fingerprint ^ std::hash<std::string>{}(key)) *
                      1099511628211ull;
      }
    }
    for (const PlanNodePtr& child : node.children()) walk(*child);
  };
  walk(root);
  return fingerprint;
}

/// Names a pool worker ("hetdb-cpu", "hetdb-gpu<d>") for debuggers, `top
/// -H` and sanitizer reports. Set by the creating thread, so the name is in
/// place when the constructor returns.
void NameThread(std::thread& thread, const std::string& name) {
#if defined(__linux__)
  pthread_setname_np(thread.native_handle(), name.substr(0, 15).c_str());
#else
  (void)thread;
  (void)name;
#endif
}

}  // namespace

ChoppingExecutor::ChoppingExecutor(EngineContext* ctx, int cpu_workers,
                                   int gpu_workers)
    : ctx_(ctx), cpu_workers_(cpu_workers), gpu_workers_(gpu_workers) {
  HETDB_CHECK((cpu_workers_ > 0 && gpu_workers_ > 0) ||
              (cpu_workers_ == 0 && gpu_workers_ == 0));
  const int devices = ctx_->device_count();
  ready_queues_.resize(1 + static_cast<size_t>(devices));
  workers_.reserve(cpu_workers_ + gpu_workers_ * devices);
  for (int i = 0; i < cpu_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(0); });
    NameThread(workers_.back(), "hetdb-cpu");
  }
  // Each device gets its own pool: the pool size per device stays the heap
  // contention knob, and N devices run N pools' worth of operators at once.
  for (int d = 0; d < devices; ++d) {
    for (int i = 0; i < gpu_workers_; ++i) {
      workers_.emplace_back(
          [this, d] { WorkerLoop(QueueIndex(ProcessorKind::kGpu, d)); });
      NameThread(workers_.back(), "hetdb-gpu" + std::to_string(d));
    }
  }
}

ChoppingExecutor::~ChoppingExecutor() {
  // Drain the ready queues under the same lock that flips shutting_down_, so
  // no worker can pick up a drained task and no ScheduleTask can enqueue
  // after the drain (it drops + fails instead). This closes the shutdown
  // race where a worker exits while a sibling is about to schedule the
  // parent — previously a stranded promise (broken_promise at .get()).
  std::vector<std::pair<QueryExecPtr, OpTask*>> dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (auto& queue : ready_queues_) {
      for (auto& entry : queue) dropped.push_back(std::move(entry));
      queue.clear();
    }
  }
  ready_cv_.notify_all();
  const Status shutdown = Status::Cancelled("chopping executor shut down");
  for (auto& [query, task] : dropped) {
    ctx_->load_tracker().RemovePending(task->assigned,
                                       task->load_estimate_micros);
    FailQuery(query, shutdown);
    ReleaseTaskInputs(task);
  }
  for (std::thread& worker : workers_) worker.join();
  // Workers are gone; settle any promise an in-flight path did not reach.
  for (const auto& weak : live_queries_) {
    if (QueryExecPtr query = weak.lock()) FailQuery(query, shutdown);
  }
}

ChoppingExecutor::QueryExecPtr ChoppingExecutor::StartQuery(
    PlanNodePtr root, RuntimePlacer placer, QueryControls controls) {
  auto query = std::make_shared<QueryExec>();
  query->root = std::move(root);
  query->placer = std::move(placer);
  query->controls = std::move(controls);
  query->query_id = Telemetry::NextQueryId();
  query->stats = query->controls.stats != nullptr ? query->controls.stats
                                                  : std::make_shared<QueryStats>();
  if (query->stats->nodes().empty()) {
    RegisterPlanNodes(query->stats.get(), query->root);
  }
  query->stats->set_query_id(query->query_id);
  query->stats->MarkSubmitted();
  query->home_device = ctx_->sharding().QueryHomeDevice(*query->root);
  // Brownout hot-template bookkeeping: every submission votes for its
  // template; at L2 only templates with an established hit count keep their
  // device privileges, everything cold runs CPU-side for the duration.
  query->template_fp = PlanTemplateFingerprint(*query->root);
  ctx_->brownout().NoteQuery(query->template_fp);
  query->device_allowed =
      ctx_->brownout().AllowDeviceForTemplate(query->template_fp);
  // Stuck-query backstop: progress fingerprint scans + deadline-multiple
  // kill fire through the query's own cancel token, so the normal cancel
  // path does the cleanup.
  ctx_->watchdog().Register(query->query_id, query->stats,
                            query->controls.cancel, query->controls.deadline,
                            query->controls.has_deadline());

  // Build the task graph (one task per operator).
  struct Builder {
    QueryExec* query;
    OpTask* Build(const PlanNodePtr& node, OpTask* parent) {
      query->tasks.push_back(std::make_unique<OpTask>());
      OpTask* task = query->tasks.back().get();
      task->node = node.get();
      task->parent = parent;
      task->stats = query->stats->Find(node.get());
      task->pending_children.store(static_cast<int>(node->children().size()),
                                   std::memory_order_relaxed);
      for (const PlanNodePtr& child : node->children()) {
        task->children.push_back(Build(child, task));
      }
      return task;
    }
  };
  Builder builder{query.get()};
  builder.Build(query->root, nullptr);
  return query;
}

std::future<Result<TablePtr>> ChoppingExecutor::Submit(PlanNodePtr root,
                                                       RuntimePlacer placer,
                                                       QueryControls controls) {
  HETDB_CHECK(!workers_.empty());
  QueryExecPtr query =
      StartQuery(std::move(root), std::move(placer), std::move(controls));
  std::future<Result<TablePtr>> future = query->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_queries_.erase(
        std::remove_if(live_queries_.begin(), live_queries_.end(),
                       [](const std::weak_ptr<QueryExec>& weak) {
                         return weak.expired();
                       }),
        live_queries_.end());
    live_queries_.push_back(query);
    if (shutting_down_) {
      FailQuery(query, Status::Cancelled("chopping executor shut down"));
      return future;
    }
  }

  // Chop: all leaves enter the global operator stream immediately — they
  // have no dependencies (Figure 10).
  for (const auto& task : query->tasks) {
    if (task->children.empty()) ScheduleTask(query, task.get());
  }
  return future;
}

Result<TablePtr> ChoppingExecutor::ExecuteQuery(PlanNodePtr root,
                                                RuntimePlacer placer,
                                                QueryControls controls) {
  return Submit(std::move(root), std::move(placer), std::move(controls)).get();
}

Result<TablePtr> ChoppingExecutor::ExecuteInline(PlanNodePtr root,
                                                 RuntimePlacer placer,
                                                 QueryControls controls) {
  QueryExecPtr query =
      StartQuery(std::move(root), std::move(placer), std::move(controls));
  std::future<Result<TablePtr>> future = query->promise.get_future();
  // The walk settles the promise: the root's success or the first failure.
  RunSubtree(query, query->tasks.front().get());
  return future.get();
}

void ChoppingExecutor::RunSubtree(const QueryExecPtr& query, OpTask* task) {
  if (task->children.size() <= 1) {
    for (OpTask* child : task->children) RunSubtree(query, child);
  } else {
    // Inter-operator parallelism: an n-ary operator evaluates its subtrees
    // concurrently.
    std::vector<std::future<void>> subtrees;
    subtrees.reserve(task->children.size());
    for (OpTask* child : task->children) {
      subtrees.push_back(std::async(std::launch::async, [this, &query, child] {
        RunSubtree(query, child);
      }));
    }
    for (std::future<void>& subtree : subtrees) subtree.get();
  }
  if (!CheckRunnable(query).ok()) {
    ReleaseTaskInputs(task);
    return;
  }
  PlaceTask(query, task);
  RunOperator(query, task);
}

Status ChoppingExecutor::CheckRunnable(const QueryExecPtr& query) {
  if (!query->failed.load(std::memory_order_acquire)) {
    if (query->controls.cancel.cancelled()) {
      FailQuery(query, Status::Cancelled("query cancelled by client"));
    } else if (query->controls.has_deadline() &&
               std::chrono::steady_clock::now() >= query->controls.deadline) {
      FailQuery(query, Status::Cancelled("query deadline exceeded"));
    }
  }
  if (query->failed.load(std::memory_order_acquire)) {
    return Status::Cancelled("query failed or cancelled");
  }
  return Status::OK();
}

std::vector<OperatorResult*> ChoppingExecutor::TaskInputs(const OpTask* task) {
  std::vector<OperatorResult*> inputs;
  inputs.reserve(task->children.size());
  for (OpTask* child : task->children) inputs.push_back(&child->result);
  return inputs;
}

void ChoppingExecutor::ReleaseTaskInputs(OpTask* task) {
  for (OpTask* child : task->children) child->result = OperatorResult();
}

void ChoppingExecutor::PlaceTask(const QueryExecPtr& query, OpTask* task) {
  const std::vector<OperatorResult*> inputs = TaskInputs(task);
  ProcessorKind kind = query->placer(*task->node, inputs, *ctx_);
  // The placer's answer is what the node requested, whatever demotes it
  // below: EXPLAIN ANALYZE renders a demoted node `[CPU, requested GPU]`.
  if (task->stats != nullptr) {
    task->stats->requested.store(kind == ProcessorKind::kGpu ? 1 : 0,
                                 std::memory_order_relaxed);
  }
  if (kind == ProcessorKind::kGpu &&
      (!query->device_allowed || ctx_->brownout().level_int() >= 3)) {
    // Brownout pinning: a cold template at L2, or survival mode (L3) entered
    // after this query was admitted. Lock-free check; the sharding device
    // gate would also catch L3, but pinning here skips the placement work
    // and counts the episode under its own metric.
    kind = ProcessorKind::kCpu;
    ctx_->brownout().NoteCpuPin();
  }

  // Device-aware sharding: the placer decides CPU vs device, the sharding
  // policy decides *which* device — preferring wherever the inputs already
  // live, then affinity/round-robin to spread cold work. No admittable
  // device demotes the operator to the CPU.
  int device = 0;
  if (kind == ProcessorKind::kGpu) {
    std::vector<std::string> input_keys;
    if (task->node->op() == PlanOp::kScan) {
      const auto& scan = static_cast<const ScanNode&>(*task->node);
      input_keys.reserve(scan.base_columns().size());
      for (const auto& [key, column] : scan.base_columns()) {
        input_keys.push_back(key);
      }
    }
    std::vector<std::pair<int, size_t>> resident_inputs;
    for (OperatorResult* input : inputs) {
      if (input->location == ProcessorKind::kGpu) {
        resident_inputs.emplace_back(input->device, input->table_bytes());
      }
    }
    const int picked = ctx_->sharding().PickDevice(input_keys, resident_inputs,
                                                   query->home_device);
    if (picked < 0) {
      // No device admits work (breakers open or devices lost): the same
      // short-circuit ExecuteWithFallback would take, decided one layer
      // earlier — count it under the same metric.
      ctx_->telemetry()
          .registry()
          .GetCounter("breaker.short_circuits")
          .Increment();
      kind = ProcessorKind::kCpu;
    } else {
      device = picked;
    }
  }
  task->assigned = kind;
  task->device = device;
}

void ChoppingExecutor::ScheduleTask(const QueryExecPtr& query, OpTask* task) {
  if (!CheckRunnable(query).ok()) {
    // This task is its children's sole consumer; free their device-held
    // results now instead of when the QueryExec is destroyed.
    ReleaseTaskInputs(task);
    return;
  }
  PlaceTask(query, task);
  const ProcessorKind kind = task->assigned;
  const int device = task->device;

  size_t input_bytes = 0;
  for (const OpTask* child : task->children) {
    input_bytes += child->result.table_bytes();
  }
  if (task->node->op() == PlanOp::kScan) {
    input_bytes = task->node->InputBytes({});
  }

  // Track queue load for HyPE's completion-time estimates. The estimate
  // includes the kernel only; transfers are second-order for load purposes.
  task->load_estimate_micros =
      ctx_->cost_model().EstimateMicros(kind, task->node->op_class(),
                                        input_bytes);
  ctx_->load_tracker().AddPending(kind, task->load_estimate_micros);

  if (TraceRecorder::enabled()) {
    RecordInstantEvent(
        "place " + task->node->label(), "placement", query->query_id,
        {{"processor", ProcessorKindToString(kind)},
         {"device", std::to_string(device)},
         {"load_estimate_us",
          std::to_string(static_cast<int64_t>(task->load_estimate_micros))}});
  }

  task->ready_at = std::chrono::steady_clock::now();
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      // Workers may already be gone; enqueueing would strand the promise.
      dropped = true;
    } else {
      // LIFO ready queues: an operator whose children just completed runs
      // before leaves of queries that have not started yet. This drains
      // queries depth-first, so the device heap holds the intermediate
      // results of only ~pool-size queries at a time instead of one
      // unconsumed result per admitted query — the memory bound that makes
      // the chopping pool an effective cure for heap contention.
      ready_queues_[static_cast<size_t>(QueueIndex(kind, device))]
          .emplace_front(query, task);
    }
  }
  if (dropped) {
    ctx_->load_tracker().RemovePending(kind, task->load_estimate_micros);
    FailQuery(query, Status::Cancelled("chopping executor shut down"));
    ReleaseTaskInputs(task);
    return;
  }
  ready_cv_.notify_all();
}

void ChoppingExecutor::WorkerLoop(int queue_index) {
  const size_t queue = static_cast<size_t>(queue_index);
  const ProcessorKind kind =
      queue_index == 0 ? ProcessorKind::kCpu : ProcessorKind::kGpu;
  while (true) {
    QueryExecPtr query;
    OpTask* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_cv_.wait(lock, [this, queue] {
        return shutting_down_ || !ready_queues_[queue].empty();
      });
      if (shutting_down_ && ready_queues_[queue].empty()) return;
      query = std::move(ready_queues_[queue].front().first);
      task = ready_queues_[queue].front().second;
      ready_queues_[queue].pop_front();
    }
    RunTask(query, task, kind);
  }
}

void ChoppingExecutor::RunTask(const QueryExecPtr& query, OpTask* task,
                               ProcessorKind kind) {
  ctx_->load_tracker().RemovePending(kind, task->load_estimate_micros);
  if (!CheckRunnable(query).ok()) {
    // Sibling already failed the query, or it was cancelled / timed out
    // between scheduling and pickup: drop the task, releasing the inputs it
    // would have consumed (device allocations, cache pins) promptly.
    ReleaseTaskInputs(task);
    return;
  }

  if (task->ready_at != std::chrono::steady_clock::time_point{}) {
    query->stats->OnQueueWait(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - task->ready_at)
            .count(),
        task->stats);
  }

  // Notify the parent; the last completing child inserts it into the stream
  // (Figure 11).
  if (RunOperator(query, task) && task->parent != nullptr &&
      task->parent->pending_children.fetch_sub(
          1, std::memory_order_acq_rel) == 1) {
    ScheduleTask(query, task->parent);
  }
}

bool ChoppingExecutor::RunOperator(const QueryExecPtr& query, OpTask* task) {
  const std::vector<OperatorResult*> inputs = TaskInputs(task);

  // Attribute everything this thread does for the operator — transfers,
  // device allocations, cache loads, the root copy-back below — to the
  // query and its node slot.
  QueryStatsScope stats_scope(query->stats, task->stats);

  TraceSpan span;
  if (TraceRecorder::enabled()) {
    span.Begin(task->node->label(), "operator");
    span.SetQuery(query->query_id);
    span.SetNode(reinterpret_cast<uint64_t>(task->node),
                 task->parent != nullptr
                     ? reinterpret_cast<uint64_t>(task->parent->node)
                     : 0);
    span.AddArg("requested", ProcessorKindToString(task->assigned));
  }
  // Charge this thread's core against the shared DoP budget while the
  // operator runs, so kernel-internal morsel parallelism on top of other
  // running operators cannot oversubscribe the machine. Best effort: with
  // no token available the operator still runs (kernels just stay serial).
  DopBudget::Token dop_token(&DopBudget::Global());
  // Brownout L1+: clamp kernel-internal morsel parallelism on this thread
  // for the duration of the operator (0 = uncapped, a no-op below L1).
  ScopedDopCap brownout_dop_cap(ctx_->brownout().DopCap());
  Stopwatch run_watch;
  Result<ExecutedOperator> executed = ExecuteWithFallback(
      *task->node, inputs, task->assigned, *ctx_, task->device);
  query->stats->OnRun(static_cast<int64_t>(run_watch.ElapsedMicros()),
                      task->stats);
  if (!executed.ok()) {
    if (span.active()) span.AddArg("error", executed.status().ToString());
    FailQuery(query, executed.status());
    ReleaseTaskInputs(task);
    return false;
  }
  if (span.active()) {
    span.AddArg("processor", ProcessorKindToString(executed.value().ran_on));
    if (executed.value().aborted) span.AddArg("cpu_retry", "true");
    span.End();  // the span covers execution only, not parent scheduling
  }
  task->result = std::move(executed).value().result;

  // Free the inputs we just consumed (device allocations, cache pins).
  ReleaseTaskInputs(task);
  if (task->parent != nullptr) return true;

  // Root finished: deliver the result on the host.
  if (task->result.location == ProcessorKind::kGpu && !task->result.base_data) {
    Status copy_back =
        TransferWithRetry(task->result.table_bytes(),
                          TransferDirection::kDeviceToHost, *ctx_,
                          task->result.device);
    if (!copy_back.ok()) {
      task->result = OperatorResult();
      FailQuery(query, copy_back);
      return false;
    }
    task->result.ReleaseDeviceResources();
  }
  if (query->done.exchange(true, std::memory_order_acq_rel)) {
    // Lost the race against a concurrent FailQuery (cancel during the
    // copy-back): the promise is settled; just drop the device residency.
    task->result = OperatorResult();
    return false;
  }
  ctx_->watchdog().Deregister(query->query_id);
  ctx_->telemetry().RecordQueryDone();
  query->stats->MarkFinished(/*ok=*/true);
  ctx_->flight_recorder().RecordQuerySummary(query->query_id,
                                             query->stats->name(),
                                             query->stats->SummaryFields());
  ctx_->NoteQueryFinished();
  query->promise.set_value(task->result.table);
  return true;
}

void ChoppingExecutor::FailQuery(const QueryExecPtr& query,
                                 const Status& status) {
  query->failed.store(true, std::memory_order_release);
  if (!query->done.exchange(true, std::memory_order_acq_rel)) {
    ctx_->watchdog().Deregister(query->query_id);
    if (query->stats != nullptr) {
      query->stats->MarkFinished(/*ok=*/false, status.ToString());
      ctx_->flight_recorder().RecordQuerySummary(
          query->query_id, query->stats->name(),
          query->stats->SummaryFields());
      ctx_->NoteQueryFinished();
    }
    query->promise.set_value(status);
  }
}

}  // namespace hetdb
