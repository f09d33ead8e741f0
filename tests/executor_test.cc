#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "engine/chopping_executor.h"
#include "placement/compile_time.h"
#include "placement/runtime.h"
#include "placement/strategy_runner.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTinyDb();
    ctx_ = std::make_unique<EngineContext>(TestConfig(), db_);
  }

  PlanNodePtr ScanFact(std::vector<std::string> columns = {"fk", "v"}) {
    return std::make_shared<ScanNode>(db_->GetTable("fact").value(),
                                      std::move(columns));
  }

  PlanNodePtr SimplePlan() {
    // select(v < 50) -> join dim -> aggregate sum(v) by name -> sort
    PlanNodePtr select = std::make_shared<SelectNode>(
        ScanFact(),
        ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
    PlanNodePtr dim_scan = std::make_shared<ScanNode>(
        db_->GetTable("dim").value(), std::vector<std::string>{"key", "name"});
    JoinOutputSpec spec;
    spec.build_columns = {"name"};
    spec.probe_columns = {"v"};
    PlanNodePtr join = std::make_shared<JoinNode>(
        std::move(dim_scan), std::move(select), "key", "fk", spec);
    PlanNodePtr agg = std::make_shared<AggregateNode>(
        std::move(join), std::vector<std::string>{"name"},
        std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
    return std::make_shared<SortNode>(
        std::move(agg), std::vector<SortKey>{{"name", true}});
  }

  DatabasePtr db_;
  std::unique_ptr<EngineContext> ctx_;
};

TEST_F(ExecutorTest, CpuScanAliasesBaseColumns) {
  PlanNodePtr scan = ScanFact();
  auto result = ExecuteOperator(*scan, {}, ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->location, ProcessorKind::kCpu);
  EXPECT_TRUE(result->base_data);
  EXPECT_EQ(result->table->num_rows(), 1000u);
  // Zero-copy: the scan output shares the base column.
  EXPECT_EQ(result->table->GetColumn("v").value().get(),
            db_->GetTable("fact").value()->GetColumn("v").value().get());
  // Access counters were bumped.
  EXPECT_EQ(db_->GetTable("fact").value()->GetColumn("v").value()->access_count(),
            1u);
}

TEST_F(ExecutorTest, GpuScanCachesColumns) {
  PlanNodePtr scan = ScanFact();
  auto result = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->location, ProcessorKind::kGpu);
  EXPECT_TRUE(result->base_data);
  EXPECT_EQ(result->cache_leases.size(), 2u);
  EXPECT_TRUE(ctx_->cache().IsCached("fact.fk"));
  EXPECT_TRUE(ctx_->cache().IsCached("fact.v"));
  EXPECT_EQ(ctx_->simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            8000u);
  // A second scan hits the cache: no more transfers.
  auto again = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ctx_->simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            8000u);
}

TEST_F(ExecutorTest, GpuScanTransientWhenCacheTooSmall) {
  SystemConfig config = TestConfig();
  config.device_memory_bytes = 64 << 10;
  config.device_cache_bytes = 1 << 10;  // 1 KB cache: columns don't fit
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  auto result = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cache_leases.size(), 0u);
  EXPECT_EQ(result->device_allocations.size(), 2u);
  EXPECT_EQ(ctx.simulator().device_heap().used(), 8000u);
  result->ReleaseDeviceResources();
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

TEST_F(ExecutorTest, GpuScanAbortsWhenHeapAndCacheTooSmall) {
  SystemConfig config = TestConfig();
  config.device_memory_bytes = 2 << 10;
  config.device_cache_bytes = 1 << 10;
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  auto result = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(), 1u);
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);  // rollback
  // No buffer, no transfer: the abort moved no byte over the bus.
  EXPECT_EQ(ctx.simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            0u);
}

TEST_F(ExecutorTest, GpuScanAbortPaysOnlyTransfersWithGrantedBuffers) {
  // The paper's allocate-as-you-go: a scan attempt with no reservation.
  SystemConfig config = TestConfig();
  config.paper_mode = true;
  config.device_cache_bytes = 1 << 10;
  // Heap room for one of the scan's two 4000-byte columns.
  config.device_memory_bytes = config.device_cache_bytes + 6000;
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  auto result = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  // The first column got its buffer and crossed the bus; the second found
  // the heap full before its transfer.
  EXPECT_EQ(ctx.simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            4000u);
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

TEST_F(ExecutorTest, GpuScanBeyondFreeHeapDeclinesBeforeAnyTransfer) {
  // The default-mode twin of the test above: the scan's reservation for
  // both 4000-byte columns cannot fit, so it runs on the CPU moving nothing.
  SystemConfig config = TestConfig();
  config.device_cache_bytes = 1 << 10;
  config.device_memory_bytes = config.device_cache_bytes + 6000;
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  auto executed = ExecuteWithFallback(*scan, {}, ProcessorKind::kGpu, ctx);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->ran_on, ProcessorKind::kCpu);
  EXPECT_FALSE(executed->aborted);
  EXPECT_EQ(executed->result.table->num_rows(), 1000u);
  EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(), 0u);
  EXPECT_EQ(ctx.telemetry().heap_declines(), 1u);
  EXPECT_EQ(ctx.simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            0u);
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

TEST_F(ExecutorTest, TransientScanDrawsItsBuffersFromOneReservation) {
  SystemConfig config = TestConfig();
  config.device_memory_bytes = 64 << 10;
  config.device_cache_bytes = 1 << 10;  // 1 KB cache: columns don't fit
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  QueryStatsPtr stats = MakeQueryStats(scan);
  NodeStats* node = stats->Find(scan.get());
  Result<ExecutedOperator> executed = [&] {
    QueryStatsScope scope(stats, node);
    return ExecuteWithFallback(*scan, {}, ProcessorKind::kGpu, ctx);
  }();
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->ran_on, ProcessorKind::kGpu);
  const std::vector<DeviceAllocation>& held =
      executed->result.device_allocations;
  ASSERT_EQ(held.size(), 2u);
  // One reservation covered both transient buffers: the heap holds exactly
  // what the result holds, and the query was charged the bytes once.
  DeviceAllocator& heap = ctx.simulator().device_heap();
  EXPECT_EQ(heap.used(), held[0].bytes() + held[1].bytes());
  EXPECT_EQ(heap.used(), 8000u);
  EXPECT_EQ(heap.peak_used(), 8000u);
  EXPECT_EQ(node->device_alloc_bytes.load(), 8000);
  EXPECT_EQ(stats->heap_bytes_held(), 8000);
  executed->result.ReleaseDeviceResources();
  EXPECT_EQ(heap.used(), 0u);
  EXPECT_EQ(stats->heap_bytes_held(), 0);
}

TEST_F(ExecutorTest, ColdScanThatFitsTheCacheRunsOnDeviceDespiteSmallHeap) {
  // The cache would admit both columns, so they cost the heap nothing: the
  // scan must not be declined for a heap smaller than its columns.
  SystemConfig config = TestConfig();
  config.device_cache_bytes = 16 << 10;
  config.device_memory_bytes = config.device_cache_bytes + (1 << 10);
  EngineContext ctx(config, db_);
  PlanNodePtr scan = ScanFact();
  auto executed = ExecuteWithFallback(*scan, {}, ProcessorKind::kGpu, ctx);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->ran_on, ProcessorKind::kGpu);
  EXPECT_EQ(executed->result.cache_leases.size(), 2u);
  EXPECT_TRUE(ctx.cache().IsCached("fact.fk"));
  EXPECT_TRUE(ctx.cache().IsCached("fact.v"));
  EXPECT_EQ(ctx.telemetry().heap_declines(), 0u);
  EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(), 0u);
  EXPECT_EQ(ctx.simulator().device_heap().peak_used(), 0u);
}

/// select(v < 10) requested on the device over a device scan of the cached
/// column v, on a heap (4 KB) smaller than the select's intermediates
/// (1.25 x its 4000-byte input). The breaker is half-open with one probe.
class SmallHeapSelectTest : public ExecutorTest {
 protected:
  /// Runs the select; `small_` is the engine it ran on.
  Result<ExecutedOperator> RunSelect(bool paper_mode) {
    SystemConfig config = TestConfig();
    config.paper_mode = paper_mode;
    config.device_cache_bytes = 8 << 10;
    config.device_memory_bytes = config.device_cache_bytes + (4 << 10);
    small_ = std::make_unique<EngineContext>(config, db_);
    scan_ = ScanFact({"v"});
    auto scanned = ExecuteOperator(*scan_, {}, ProcessorKind::kGpu, *small_);
    EXPECT_TRUE(scanned.ok());
    scanned_ = std::move(scanned).value();
    EXPECT_TRUE(small_->cache().IsCached("fact.v"));

    DeviceCircuitBreaker::Options options;
    options.min_samples = 1;
    options.cooldown_denials = 1;
    options.cooldown_micros = 0;
    options.half_open_probes = 1;
    DeviceCircuitBreaker& breaker = small_->breaker();
    breaker.Configure(options);
    breaker.RecordDeviceAbort();          // trips open
    EXPECT_FALSE(breaker.AllowDevice());  // the denial half-opens it
    EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);

    bus_bytes_before_ = BusBytes();
    select_ = std::make_shared<SelectNode>(
        scan_, ConjunctiveFilter::And({Predicate::Lt("v", int64_t{10})}));
    return ExecuteWithFallback(*select_, {&scanned_}, ProcessorKind::kGpu,
                               *small_);
  }

  uint64_t BusBytes() {
    return small_->simulator().bus().transferred_bytes(
               TransferDirection::kHostToDevice) +
           small_->simulator().bus().transferred_bytes(
               TransferDirection::kDeviceToHost);
  }

  TablePtr CpuReference() {
    auto reference = ExecuteOperator(*select_, {&scanned_},
                                     ProcessorKind::kCpu, *ctx_);
    EXPECT_TRUE(reference.ok());
    return reference->table;
  }

  std::unique_ptr<EngineContext> small_;  // outlives the leases below
  PlanNodePtr scan_;
  PlanNodePtr select_;
  OperatorResult scanned_;
  uint64_t bus_bytes_before_ = 0;
};

TEST_F(SmallHeapSelectTest, DeclinesToCpuOutsidePaperMode) {
  Result<ExecutedOperator> executed = RunSelect(/*paper_mode=*/false);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->ran_on, ProcessorKind::kCpu);
  EXPECT_FALSE(executed->aborted);
  EXPECT_TRUE(TablesEqual(*CpuReference(), *executed->result.table));
  EXPECT_EQ(small_->telemetry().gpu_operator_aborts(), 0u);
  EXPECT_EQ(small_->telemetry().heap_declines(), 1u);
  EXPECT_EQ(small_->telemetry().heap_declines(0), 1u);
  EXPECT_EQ(small_->simulator().device_heap().failed_allocations(), 0u);
  EXPECT_EQ(BusBytes(), bus_bytes_before_);
  EXPECT_EQ(small_->simulator().device_heap().used(), 0u);
  // The decline took no breaker admission: the one probe is still free.
  EXPECT_EQ(small_->breaker().state(), DeviceCircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(small_->breaker().AllowDevice());
}

TEST_F(SmallHeapSelectTest, AbortsAndRestartsInPaperMode) {
  Result<ExecutedOperator> executed = RunSelect(/*paper_mode=*/true);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(executed->ran_on, ProcessorKind::kCpu);
  EXPECT_TRUE(executed->aborted);
  EXPECT_TRUE(TablesEqual(*CpuReference(), *executed->result.table));
  EXPECT_EQ(small_->telemetry().gpu_operator_aborts(), 1u);
  EXPECT_EQ(small_->telemetry().heap_declines(), 0u);
  EXPECT_EQ(small_->simulator().device_heap().failed_allocations(), 1u);
  EXPECT_EQ(small_->simulator().device_heap().used(), 0u);
  // The attempt was the half-open probe, and its abort re-opened the breaker.
  EXPECT_EQ(small_->breaker().state(), DeviceCircuitBreaker::State::kOpen);
}

TEST_F(ExecutorTest, GpuSelectOverCpuChildTransfersInput) {
  PlanNodePtr scan = ScanFact({"v"});
  auto child = ExecuteOperator(*scan, {}, ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(child.ok());
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact({"v"}), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{10})}));
  std::vector<OperatorResult*> inputs = {&child.value()};
  auto result = ExecuteOperator(*select, inputs, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->location, ProcessorKind::kGpu);
  EXPECT_FALSE(result->base_data);
  // Input bytes crossed the bus; the result is held in device heap.
  EXPECT_EQ(ctx_->simulator().bus().transferred_bytes(
                TransferDirection::kHostToDevice),
            4000u);
  EXPECT_FALSE(result->device_allocations.empty());
  EXPECT_GT(ctx_->simulator().device_heap().used(), 0u);
}

TEST_F(ExecutorTest, CpuConsumerOfGpuIntermediatePaysCopyBack) {
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact({"v"}), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{10})}));
  PlanNodePtr scan = select->children()[0];
  auto scanned = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(scanned.ok());
  std::vector<OperatorResult*> scan_inputs = {&scanned.value()};
  auto filtered =
      ExecuteOperator(*select, scan_inputs, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(filtered.ok());
  const uint64_t d2h_before = ctx_->simulator().bus().transferred_bytes(
      TransferDirection::kDeviceToHost);
  // Aggregate on the CPU consumes the device-resident selection result.
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      select, std::vector<std::string>{},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "s"}});
  std::vector<OperatorResult*> inputs = {&filtered.value()};
  auto result = ExecuteOperator(*agg, inputs, ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(result.ok());
  const uint64_t d2h_after = ctx_->simulator().bus().transferred_bytes(
      TransferDirection::kDeviceToHost);
  EXPECT_GT(d2h_after, d2h_before);
  EXPECT_EQ(result->location, ProcessorKind::kCpu);
}

TEST_F(ExecutorTest, CpuConsumerOfGpuScanPaysNoCopyBack) {
  PlanNodePtr scan = ScanFact({"v"});
  auto scanned = ExecuteOperator(*scan, {}, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(scanned.ok());
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      scan, std::vector<std::string>{},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "s"}});
  std::vector<OperatorResult*> inputs = {&scanned.value()};
  auto result = ExecuteOperator(*agg, inputs, ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(result.ok());
  // Base data always has a host copy: no device-to-host traffic.
  EXPECT_EQ(ctx_->simulator().bus().transferred_bytes(
                TransferDirection::kDeviceToHost),
            0u);
}

TEST_F(ExecutorTest, FallbackRestartsAbortedOperatorOnCpu) {
  ctx_->simulator().fault_injector().SetSchedule(
      FaultSite::kDeviceAlloc, FaultSchedule::Always(FaultKind::kHeapExhausted));
  PlanNodePtr scan = ScanFact({"v"});
  auto scanned = ExecuteOperator(*scan, {}, ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(scanned.ok());
  PlanNodePtr select = std::make_shared<SelectNode>(
      scan, ConjunctiveFilter::And({Predicate::Lt("v", int64_t{10})}));
  std::vector<OperatorResult*> inputs = {&scanned.value()};
  auto executed = ExecuteWithFallback(*select, inputs, ProcessorKind::kGpu, *ctx_);
  ASSERT_TRUE(executed.ok());
  EXPECT_TRUE(executed->aborted);
  EXPECT_EQ(executed->ran_on, ProcessorKind::kCpu);
  EXPECT_EQ(ctx_->telemetry().gpu_operator_aborts(), 1u);
  EXPECT_EQ(executed->result.table->num_rows(), 110u);  // v in [0,10) of i%97
}

TEST_F(ExecutorTest, FallbackDoesNotMaskRealErrors) {
  PlanNodePtr bad_select = std::make_shared<SelectNode>(
      ScanFact({"v"}),
      ConjunctiveFilter::And({Predicate::Lt("missing", int64_t{1})}));
  std::vector<OperatorResult*> no_inputs;
  auto scanned = ExecuteOperator(*bad_select->children()[0], no_inputs,
                                 ProcessorKind::kCpu, *ctx_);
  ASSERT_TRUE(scanned.ok());
  std::vector<OperatorResult*> inputs = {&scanned.value()};
  auto executed =
      ExecuteWithFallback(*bad_select, inputs, ProcessorKind::kCpu, *ctx_);
  EXPECT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, InlineExecutionRunsFullPlan) {
  ChoppingExecutor executor(ctx_.get());
  PlanNodePtr plan = SimplePlan();
  auto result =
      executor.ExecuteInline(plan, MakeReplayPlacer(PlaceCpuOnly(plan)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->num_rows(), 10u);
  EXPECT_EQ(ctx_->telemetry().queries_completed(), 1u);
}

TEST_F(ExecutorTest, AllPlacementsProduceIdenticalResults) {
  ChoppingExecutor executor(ctx_.get());
  PlanNodePtr plan_cpu = SimplePlan();
  auto cpu = executor.ExecuteInline(plan_cpu,
                                    MakeReplayPlacer(PlaceCpuOnly(plan_cpu)));
  ASSERT_TRUE(cpu.ok());
  PlanNodePtr plan_gpu = SimplePlan();
  auto gpu = executor.ExecuteInline(plan_gpu,
                                    MakeReplayPlacer(PlaceGpuOnly(plan_gpu)));
  ASSERT_TRUE(gpu.ok());
  EXPECT_TRUE(TablesEqual(*cpu.value(), *gpu.value()));
}

TEST_F(ExecutorTest, CompileTimePlacementSurvivesAborts) {
  // Every device allocation fails: a GPU-only plan must still complete, all
  // operators falling back to the CPU.
  ctx_->simulator().fault_injector().SetSchedule(
      FaultSite::kDeviceAlloc, FaultSchedule::Always(FaultKind::kHeapExhausted));
  ChoppingExecutor executor(ctx_.get());
  PlanNodePtr plan = SimplePlan();
  auto result =
      executor.ExecuteInline(plan, MakeReplayPlacer(PlaceGpuOnly(plan)));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(ctx_->telemetry().gpu_operator_aborts(), 0u);
  PlanNodePtr reference = SimplePlan();
  EngineContext clean_ctx(TestConfig(), db_);
  ChoppingExecutor clean(&clean_ctx);
  auto expected =
      clean.ExecuteInline(reference, MakeReplayPlacer(PlaceCpuOnly(reference)));
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(TablesEqual(*expected.value(), *result.value()));
}

TEST_F(ExecutorTest, ChoppingExecutorMatchesCompileTime) {
  ChoppingExecutor chopping(ctx_.get(), 2, 1);
  PlanNodePtr reference_plan = SimplePlan();
  auto expected = chopping.ExecuteInline(
      reference_plan, MakeReplayPlacer(PlaceCpuOnly(reference_plan)));
  ASSERT_TRUE(expected.ok());

  auto result = chopping.ExecuteQuery(SimplePlan(), MakeHypePlacer());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(TablesEqual(*expected.value(), *result.value()));
}

/// Live pool workers of every ChoppingExecutor in this process: the
/// /proc/self/task entries named "hetdb-cpu" or "hetdb-gpu<d>". Threads the
/// executor did not start (a sanitizer's, the engine's services) do not
/// count.
size_t ExecutorThreads() {
  size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(entry.path() / "comm");
    std::string name;
    if (std::getline(comm, name) && name.starts_with("hetdb-")) ++threads;
  }
  return threads;
}

/// Compile-time strategies run inline on the caller's thread, so their
/// runners own no worker pool; the chopping runner starts its pools.
TEST_F(ExecutorTest, CompileTimeRunnersStartNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task to count threads";
  }
  // Earlier tests joined their workers, but a joined thread can stay listed
  // for a moment while it exits.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ExecutorThreads() > 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ExecutorThreads(), 0u);
  for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly,
                            Strategy::kCriticalPath, Strategy::kDataDriven}) {
    StrategyRunner runner(ctx_.get(), strategy);
    EXPECT_EQ(ExecutorThreads(), 0u) << StrategyToString(strategy);
  }
  StrategyRunner chopping(ctx_.get(), Strategy::kChopping);
  EXPECT_EQ(ExecutorThreads(),
            static_cast<size_t>(ctx_->config().cpu_workers +
                                ctx_->config().gpu_workers *
                                    ctx_->device_count()));
}

TEST_F(ExecutorTest, ChoppingHandlesManyConcurrentQueries) {
  ChoppingExecutor chopping(ctx_.get(), 2, 1);
  std::vector<std::future<Result<TablePtr>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(chopping.Submit(SimplePlan(), MakeDataDrivenPlacer()));
  }
  TablePtr first;
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    if (first == nullptr) {
      first = result.value();
    } else {
      EXPECT_TRUE(TablesEqual(*first, *result.value()));
    }
  }
  EXPECT_EQ(ctx_->telemetry().queries_completed(), 16u);
}

TEST_F(ExecutorTest, ChoppingSurvivesAllocatorFailures) {
  // First five device allocations fail, then the device recovers.
  ctx_->simulator().fault_injector().SetSchedule(
      FaultSite::kDeviceAlloc,
      FaultSchedule::FirstN(FaultKind::kHeapExhausted, 5));
  ChoppingExecutor chopping(ctx_.get(), 2, 2);
  auto result = chopping.ExecuteQuery(SimplePlan(), MakeHypePlacer());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->num_rows(), 10u);
}

/// Eight threads run GPU Only selections on a heap that holds about 1.5 of
/// them. Each reserves its intermediates before it starts, so a second
/// cannot start beside the first, and the heap still holds every result:
/// the others decline to the CPU instead of aborting.
TEST_F(ExecutorTest, ConcurrentSelectionsDeclineInsteadOfAborting) {
  auto make_plan = [this] {
    return PlanNodePtr(std::make_shared<SelectNode>(
        ScanFact({"v"}),
        ConjunctiveFilter::And({Predicate::Lt("v", int64_t{5})})));
  };
  StrategyRunner cpu(ctx_.get(), Strategy::kCpuOnly);
  Result<TablePtr> reference = cpu.RunQuery(make_plan());
  ASSERT_TRUE(reference.ok());
  const size_t input_bytes = 4000;  // the 1000-row int32 column v
  const size_t one_selection =
      input_bytes + input_bytes / 4 + reference.value()->data_bytes();

  SystemConfig config = TestConfig();
  config.device_cache_bytes = 8 << 10;
  config.device_memory_bytes = config.device_cache_bytes + one_selection * 3 / 2;
  EngineContext ctx(config, db_);
  StrategyRunner gpu(&ctx, Strategy::kGpuOnly);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        Result<TablePtr> result = gpu.RunQuery(make_plan());
        if (!result.ok() || !TablesEqual(*reference.value(), *result.value())) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const DeviceAllocator& heap = ctx.simulator().device_heap();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(), 0u);
  EXPECT_EQ(heap.failed_allocations(), 0u);
  EXPECT_LE(heap.peak_used(), heap.capacity());
  EXPECT_EQ(heap.used(), 0u);
  EXPECT_EQ(ctx.telemetry().queries_completed(),
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
}

TEST_F(ExecutorTest, ChoppingReportsQueryErrors) {
  PlanNodePtr bad = std::make_shared<SelectNode>(
      ScanFact({"v"}),
      ConjunctiveFilter::And({Predicate::Lt("missing", int64_t{1})}));
  ChoppingExecutor chopping(ctx_.get(), 1, 1);
  auto result = chopping.ExecuteQuery(bad, MakeHypePlacer());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, RuntimePlacerSendsSuccessorsOfAbortedOpsToCpu) {
  // Data-driven placer: a CPU-located input forces CPU placement.
  OperatorResult cpu_input;
  cpu_input.table = db_->GetTable("fact").value();
  cpu_input.location = ProcessorKind::kCpu;
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact({"v"}), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{1})}));
  RuntimePlacer placer = MakeDataDrivenPlacer();
  std::vector<OperatorResult*> inputs = {&cpu_input};
  EXPECT_EQ(placer(*select, inputs, *ctx_), ProcessorKind::kCpu);
  cpu_input.location = ProcessorKind::kGpu;
  EXPECT_EQ(placer(*select, inputs, *ctx_), ProcessorKind::kGpu);
}

}  // namespace
}  // namespace hetdb
