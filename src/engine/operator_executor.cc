#include "engine/operator_executor.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "telemetry/query_stats.h"

namespace hetdb {

namespace {

/// Attributes modeled kernel time to the node the calling thread is
/// executing (no-op outside a QueryStatsScope).
void AttributeKernelMicros(ProcessorKind processor, double micros) {
  NodeStats* stats = QueryStatsScope::current_node();
  if (stats == nullptr) return;
  auto& counter = processor == ProcessorKind::kGpu ? stats->gpu_kernel_micros
                                                   : stats->cpu_kernel_micros;
  counter.fetch_add(static_cast<int64_t>(micros), std::memory_order_relaxed);
}

/// Stamps node-level outcome fields after a successful execution.
void AttributeOutcome(const std::vector<OperatorResult*>& inputs,
                      const OperatorResult& result, ProcessorKind ran_on) {
  NodeStats* stats = QueryStatsScope::current_node();
  if (stats == nullptr) return;
  stats->ran_on.store(ran_on == ProcessorKind::kGpu ? 1 : 0,
                      std::memory_order_relaxed);
  stats->device.store(ran_on == ProcessorKind::kGpu ? result.device : -1,
                      std::memory_order_relaxed);
  int64_t rows_in = 0;
  for (const OperatorResult* input : inputs) {
    if (input != nullptr && input->table != nullptr) {
      rows_in += static_cast<int64_t>(input->table->num_rows());
    }
  }
  stats->rows_in.store(rows_in, std::memory_order_relaxed);
  if (result.table != nullptr) {
    stats->rows_out.store(static_cast<int64_t>(result.table->num_rows()),
                          std::memory_order_relaxed);
  }
}

/// CPU execution: marshal device-resident inputs back to the host, run the
/// kernel, charge modeled CPU time (waiting for the simulated CPU's cores).
Result<OperatorResult> ExecuteOnCpu(const PlanNode& node,
                                    const std::vector<OperatorResult*>& inputs,
                                    EngineContext& ctx) {
  std::vector<TablePtr> input_tables;
  input_tables.reserve(inputs.size());
  for (OperatorResult* input : inputs) {
    HETDB_CHECK(input != nullptr && input->table != nullptr);
    if (input->location == ProcessorKind::kGpu && !input->base_data) {
      // Intermediate result produced on the device: copy it back. This is
      // the cost a compile-time plan pays when a device operator aborted and
      // its successor was left on the other processor (Figure 8).
      HETDB_RETURN_NOT_OK(TransferWithRetry(input->table_bytes(),
                                           TransferDirection::kDeviceToHost,
                                           ctx, input->device));
      input->ReleaseDeviceResources();
      input->location = ProcessorKind::kCpu;
    }
    input_tables.push_back(input->table);
  }

  Stopwatch kernel_watch;
  HETDB_ASSIGN_OR_RETURN(TablePtr output, node.ComputeResult(input_tables));

  if (node.op() != PlanOp::kScan) {
    const size_t input_bytes = node.InputBytes(input_tables);
    ctx.simulator().ChargeCompute(ProcessorKind::kCpu, node.op_class(),
                                  input_bytes);
    AttributeKernelMicros(
        ProcessorKind::kCpu,
        ctx.simulator().EstimateComputeMicros(ProcessorKind::kCpu,
                                              node.op_class(), input_bytes));
    // HyPE learns from *measured* durations (normalized back to modeled
    // units), so the model captures waits for a core (preemption by shorter
    // kernels included) and queueing that the analytical bootstrap cannot
    // know about.
    ctx.cost_model().Observe(
        ProcessorKind::kCpu, node.op_class(), input_bytes,
        kernel_watch.ElapsedMicros() / ctx.config().time_scale);
  }
  ctx.telemetry().RecordOperator(/*on_gpu=*/false);

  OperatorResult result;
  result.table = std::move(output);
  result.location = ProcessorKind::kCpu;
  result.base_data = node.op() == PlanOp::kScan;
  return result;
}

/// Consults the fault injector's kernel site before a device kernel launch.
/// Returns non-OK when the launch must fail; a latency spike instead charges
/// the extra modeled kernel time and succeeds.
Status CheckKernelLaunch(const PlanNode& node, size_t input_bytes,
                         EngineContext& ctx, int device) {
  FaultInjector& injector = ctx.simulator().fault_injector(device);
  if (!injector.enabled()) return Status::OK();
  const FaultDecision fault =
      injector.Decide(FaultSite::kKernel, input_bytes);
  if (fault.fault()) {
    return fault.ToStatus("kernel " + node.label());
  }
  if (fault.kind == FaultKind::kLatencySpike) {
    // Thermal throttling: the kernel succeeds but runs `latency_factor`
    // times slower; charge the extra time on top of the regular kernel cost.
    ctx.simulator().clock().Charge(
        (fault.latency_factor - 1.0) *
        ctx.simulator().EstimateComputeMicros(ProcessorKind::kGpu,
                                              node.op_class(), input_bytes));
  }
  return Status::OK();
}

/// Device execution with staged allocation; see the header for the phases.
Result<OperatorResult> ExecuteOnGpu(const PlanNode& node,
                                    const std::vector<OperatorResult*>& inputs,
                                    EngineContext& ctx, int device,
                                    DeviceAllocation* reservation) {
  Stopwatch abort_watch;
  DeviceAllocator& heap = ctx.simulator().device_heap(device);

  auto abort_with = [&](const Status& status) -> Status {
    ctx.telemetry().RecordGpuAbort(abort_watch.ElapsedMicros(), device);
    return status;
  };

  OperatorResult result;
  result.location = ProcessorKind::kGpu;
  result.device = device;

  // --- Scans: acquire base columns through the data cache -------------------
  if (node.op() == PlanOp::kScan) {
    const auto& scan = static_cast<const ScanNode&>(node);
    for (const auto& [key, column] : scan.base_columns()) {
      DataCache::Access access =
          ctx.cache(device).RequireOnDevice(column, key, reservation);
      // A failed load is still a miss, as in the cache's own stats.
      if (QueryStats* stats = QueryStatsScope::current_stats()) {
        stats->OnCacheAccess(access.hit, QueryStatsScope::current_node());
      }
      if (!access.status.ok()) {
        // No heap room for a transient column, or its load transfer
        // faulted: the column is neither cached nor held.
        return abort_with(access.status);
      }
      if (access.resident) {
        result.cache_leases.push_back(std::move(access.lease));
      } else {
        // Cache cannot hold the column: it was transferred into a heap
        // buffer for this operator only (the thrashing path). Hold it.
        result.device_allocations.push_back(std::move(access.heap_buffer));
      }
    }
    Status launch = CheckKernelLaunch(node, node.InputBytes({}), ctx, device);
    if (!launch.ok()) return abort_with(launch);
    HETDB_ASSIGN_OR_RETURN(TablePtr output, node.ComputeResult({}));
    result.table = std::move(output);
    result.base_data = true;
    ctx.telemetry().RecordOperator(/*on_gpu=*/true, device);
    return result;
  }

  // --- Phase 1: inputs -------------------------------------------------------
  std::vector<TablePtr> input_tables;
  input_tables.reserve(inputs.size());
  for (OperatorResult* input : inputs) {
    HETDB_CHECK(input != nullptr && input->table != nullptr);
    const bool on_this_device =
        input->location == ProcessorKind::kGpu && input->device == device;
    if (!on_this_device) {
      // The bytes are not on this device yet: allocate a buffer here and
      // bring them in over the cheapest correct path.
      Result<DeviceAllocation> allocation =
          heap.Allocate(input->table_bytes(),
                        "device input for " + node.label(), reservation);
      if (!allocation.ok()) return abort_with(allocation.status());
      result.device_allocations.push_back(std::move(allocation).value());
      Status transfer;
      if (input->location == ProcessorKind::kGpu && !input->base_data) {
        // Intermediate result held by another device: migrate it over the
        // D2D path (dedicated link, or D2H + H2D through the host).
        transfer = ctx.simulator().TransferDeviceToDevice(
            input->table_bytes(), input->device, device);
      } else {
        // Host-resident (or base data, which always has a host copy): ship
        // it over this device's own PCIe link.
        transfer = ctx.simulator().bus(device).Transfer(
            input->table_bytes(), TransferDirection::kHostToDevice);
      }
      if (!transfer.ok()) return abort_with(transfer);
    }
    input_tables.push_back(input->table);
  }

  // --- Phase 2: intermediate data structures ---------------------------------
  const size_t intermediate_bytes = node.IntermediateDeviceBytes(input_tables);
  DeviceAllocation intermediates;
  if (intermediate_bytes > 0) {
    Result<DeviceAllocation> allocation = heap.Allocate(
        intermediate_bytes, "intermediates for " + node.label(), reservation);
    if (!allocation.ok()) return abort_with(allocation.status());
    intermediates = std::move(allocation).value();
  }

  // --- Phase 3: kernel --------------------------------------------------------
  Status launch =
      CheckKernelLaunch(node, node.InputBytes(input_tables), ctx, device);
  if (!launch.ok()) return abort_with(launch);
  Stopwatch kernel_watch;
  HETDB_ASSIGN_OR_RETURN(TablePtr output, node.ComputeResult(input_tables));
  const size_t input_bytes = node.InputBytes(input_tables);
  ctx.simulator().ChargeCompute(ProcessorKind::kGpu, node.op_class(),
                                input_bytes, device);
  AttributeKernelMicros(
      ProcessorKind::kGpu,
      ctx.simulator().EstimateComputeMicros(ProcessorKind::kGpu,
                                            node.op_class(), input_bytes));
  ctx.cost_model().Observe(
      ProcessorKind::kGpu, node.op_class(), input_bytes,
      kernel_watch.ElapsedMicros() / ctx.config().time_scale);

  // --- Phase 4: result buffer (exact size, known only now) --------------------
  const size_t output_bytes = output->data_bytes();
  if (output_bytes > 0) {
    Result<DeviceAllocation> allocation =
        heap.Allocate(output_bytes, "result of " + node.label());
    // Failing here wastes the whole kernel — this is what makes aborts late
    // in an operator expensive (Figure 20's wasted time).
    if (!allocation.ok()) return abort_with(allocation.status());
    result.device_allocations.push_back(std::move(allocation).value());
  }
  intermediates.Release();

  result.table = std::move(output);
  ctx.telemetry().RecordOperator(/*on_gpu=*/true, device);
  return result;
}

/// Phases 1 and 2 of a device attempt of `node` on `device`: a scan's
/// columns that device's cache will not hold, or another operator's inputs
/// not yet on it plus its intermediates.
size_t KnownDeviceBytes(const PlanNode& node,
                        const std::vector<OperatorResult*>& inputs,
                        EngineContext& ctx, int device) {
  if (node.op() == PlanOp::kScan) {
    return ctx.cache(device).TransientBytes(
        static_cast<const ScanNode&>(node).base_columns());
  }
  size_t bytes = 0;
  std::vector<TablePtr> input_tables;
  input_tables.reserve(inputs.size());
  for (const OperatorResult* input : inputs) {
    if (input->location != ProcessorKind::kGpu || input->device != device) {
      bytes += input->table_bytes();
    }
    input_tables.push_back(input->table);
  }
  return bytes + node.IntermediateDeviceBytes(input_tables);
}

/// Outside paper mode, takes the reservation a device attempt draws its
/// phases from; false (a heap decline) when the free heap cannot hold it.
/// In paper mode reserves nothing, so each phase allocates as it goes.
bool ReserveKnownBytes(const PlanNode& node,
                       const std::vector<OperatorResult*>& inputs,
                       EngineContext& ctx, int device,
                       DeviceAllocation* reservation) {
  if (ctx.config().paper_mode) return true;
  *reservation = ctx.simulator().device_heap(device).Reserve(
      KnownDeviceBytes(node, inputs, ctx, device));
  return reservation->valid();
}

}  // namespace

Result<OperatorResult> ExecuteOperator(const PlanNode& node,
                                       const std::vector<OperatorResult*>& inputs,
                                       ProcessorKind processor,
                                       EngineContext& ctx, int device,
                                       DeviceAllocation* reservation) {
  if (processor == ProcessorKind::kCpu) {
    return ExecuteOnCpu(node, inputs, ctx);
  }
  return ExecuteOnGpu(node, inputs, ctx, device, reservation);
}

Result<ExecutedOperator> ExecuteWithFallback(
    const PlanNode& node, const std::vector<OperatorResult*>& inputs,
    ProcessorKind processor, EngineContext& ctx, int device) {
  bool aborted = false;
  NodeStats* node_stats = QueryStatsScope::current_node();
  if (processor == ProcessorKind::kGpu) {
    DeviceCircuitBreaker& breaker = ctx.breaker(device);
    DeviceAllocation reservation;
    if (!ReserveKnownBytes(node, inputs, ctx, device, &reservation)) {
      // The heap cannot hold what the operator already knows it needs: run
      // it on the CPU before it moves a byte. Not an abort and no breaker
      // outcome. It does not wait for heap either: the operator may hold
      // its inputs' device results, and waiting while holding is the
      // deadlock of Section 2.5.1.
      ctx.telemetry().RecordHeapDecline(device);
      if (node_stats != nullptr) {
        node_stats->heap_declines.fetch_add(1, std::memory_order_relaxed);
      }
      processor = ProcessorKind::kCpu;
    } else if (!breaker.AllowDevice()) {
      // Breaker open: the device is aborting most operators right now, so
      // don't even start one — go straight to the CPU without paying the
      // wasted start-to-abort time of Figure 20.
      ctx.telemetry()
          .registry()
          .GetCounter("breaker.short_circuits")
          .Increment();
      processor = ProcessorKind::kCpu;
    } else {
      // Every iteration holds one breaker admission and reports exactly one
      // outcome; retries re-request admission so half-open probe accounting
      // stays exact.
      for (int attempt = 0;; ++attempt) {
        if (node_stats != nullptr) {
          node_stats->attempts.fetch_add(1, std::memory_order_relaxed);
        }
        Result<OperatorResult> device_try = ExecuteOperator(
            node, inputs, ProcessorKind::kGpu, ctx, device, &reservation);
        // The attempt ended: the bytes it did not draw go back to the heap.
        reservation.Release();
        if (device_try.ok()) {
          breaker.RecordDeviceSuccess();
          ExecutedOperator executed;
          executed.result = std::move(device_try).value();
          executed.ran_on = ProcessorKind::kGpu;
          executed.aborted = false;
          AttributeOutcome(inputs, executed.result, ProcessorKind::kGpu);
          return executed;
        }
        const Status& status = device_try.status();
        if (!status.IsDeviceAbort()) {
          // Logic error (bad plan, kernel bug): not the device's fault, not
          // recoverable by moving processors.
          return status;
        }
        breaker.RecordDeviceAbort(status.IsDeviceLost());
        // Only transient faults are worth retrying on the device: heap
        // contention (ResourceExhausted) does not resolve by waiting inside
        // the operator (Section 2.5.1), and a lost device stays lost. A
        // retry reserves afresh; one the heap cannot hold falls back.
        if (status.IsUnavailable() && attempt < kDeviceRetryLimit &&
            ReserveKnownBytes(node, inputs, ctx, device, &reservation) &&
            breaker.AllowDevice()) {
          const double backoff_micros =
              ctx.simulator().RetryBackoffMicros(attempt);
          ctx.simulator().clock().Charge(backoff_micros);
          MetricRegistry& registry = ctx.telemetry().registry();
          registry.GetCounter("engine.device_retries").Increment();
          registry.GetHistogram("engine.retry_backoff_us")
              .Record(static_cast<int64_t>(backoff_micros));
          if (node_stats != nullptr) {
            node_stats->device_retries.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        aborted = true;
        if (node_stats != nullptr) {
          node_stats->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      // The paper's fault tolerance: restart only the failed operator on the
      // CPU; already-computed child results are preserved (Section 2.5.1).
      processor = ProcessorKind::kCpu;
    }
  }
  if (node_stats != nullptr) {
    node_stats->attempts.fetch_add(1, std::memory_order_relaxed);
  }
  Result<OperatorResult> run = ExecuteOperator(node, inputs, processor, ctx);
  if (!run.ok()) return run.status();
  ExecutedOperator executed;
  executed.result = std::move(run).value();
  executed.ran_on = processor;
  executed.aborted = aborted;
  AttributeOutcome(inputs, executed.result, processor);
  return executed;
}

Status TransferWithRetry(size_t bytes, TransferDirection direction,
                         EngineContext& ctx, int device) {
  for (int attempt = 0;; ++attempt) {
    Status status = ctx.simulator().bus(device).Transfer(bytes, direction);
    if (status.ok() || !status.IsUnavailable() ||
        attempt >= kTransferRetryLimit) {
      return status;
    }
    const double backoff_micros = ctx.simulator().RetryBackoffMicros(attempt);
    ctx.simulator().clock().Charge(backoff_micros);
    ctx.telemetry()
        .registry()
        .GetCounter("engine.transfer_retries")
        .Increment();
  }
}

}  // namespace hetdb
