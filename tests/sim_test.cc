#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "sim/cpu_scheduler.h"
#include "sim/simulator.h"

namespace hetdb {
namespace {

SystemConfig FastConfig() {
  SystemConfig config;
  config.simulate_time = false;  // bookkeeping only, no sleeps
  return config;
}

TEST(DeviceAllocatorTest, AllocateAndRelease) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(60, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(allocator.used(), 60u);
  EXPECT_EQ(allocator.available(), 40u);
  {
    auto b = allocator.Allocate(40, "b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(allocator.used(), 100u);
    EXPECT_EQ(allocator.available(), 0u);
  }
  EXPECT_EQ(allocator.used(), 60u);  // b released by RAII
  a->Release();
  EXPECT_EQ(allocator.used(), 0u);
}

TEST(DeviceAllocatorTest, FailsWhenExhausted) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(80, "a");
  ASSERT_TRUE(a.ok());
  auto b = allocator.Allocate(30, "b");
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsResourceExhausted());
  EXPECT_EQ(allocator.failed_allocations(), 1u);
  EXPECT_EQ(allocator.used(), 80u);  // failed allocation has no effect
}

TEST(DeviceAllocatorTest, OversizedRequestAlwaysFails) {
  DeviceAllocator allocator(100);
  EXPECT_FALSE(allocator.Allocate(101, "big").ok());
  EXPECT_TRUE(allocator.Allocate(100, "exact").ok());
}

TEST(DeviceAllocatorTest, TracksPeakUsage) {
  DeviceAllocator allocator(100);
  {
    auto a = allocator.Allocate(70, "a");
    ASSERT_TRUE(a.ok());
  }
  auto b = allocator.Allocate(10, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(allocator.peak_used(), 70u);
  allocator.ResetStats();
  EXPECT_EQ(allocator.peak_used(), 10u);
  EXPECT_EQ(allocator.failed_allocations(), 0u);
}

TEST(DeviceAllocatorTest, MoveTransfersOwnership) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(50, "a");
  ASSERT_TRUE(a.ok());
  DeviceAllocation moved = std::move(a).value();
  EXPECT_EQ(allocator.used(), 50u);
  DeviceAllocation second = std::move(moved);
  EXPECT_EQ(allocator.used(), 50u);
  second.Release();
  EXPECT_EQ(allocator.used(), 0u);
}

TEST(DeviceAllocatorTest, ReserveDeclinesWithoutCountingAFailure) {
  DeviceAllocator allocator(100);
  DeviceAllocation held = allocator.Reserve(70);
  ASSERT_TRUE(held.valid());
  EXPECT_EQ(allocator.used(), 70u);
  // 40 more bytes do not fit: declined, not failed.
  EXPECT_FALSE(allocator.Reserve(40).valid());
  EXPECT_EQ(allocator.failed_allocations(), 0u);
  EXPECT_EQ(allocator.used(), 70u);
  // An empty reservation is valid and takes nothing.
  DeviceAllocation empty = allocator.Reserve(0);
  EXPECT_TRUE(empty.valid());
  EXPECT_EQ(allocator.used(), 70u);
}

TEST(DeviceAllocatorTest, AllocationsDrawFromAReservation) {
  DeviceAllocator allocator(100);
  DeviceAllocation reservation = allocator.Reserve(60);
  ASSERT_TRUE(reservation.valid());
  auto a = allocator.Allocate(25, "a", &reservation);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->bytes(), 25u);
  EXPECT_EQ(reservation.bytes(), 35u);
  EXPECT_EQ(allocator.used(), 60u);  // drawn, not taken again
  // More than the reservation holds comes from the free heap instead.
  auto b = allocator.Allocate(40, "b", &reservation);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(reservation.bytes(), 35u);
  EXPECT_EQ(allocator.used(), 100u);
  // Each piece returns its own bytes.
  reservation.Release();
  EXPECT_EQ(allocator.used(), 65u);
  a->Release();
  b->Release();
  EXPECT_EQ(allocator.used(), 0u);
  EXPECT_EQ(allocator.peak_used(), 100u);
}

TEST(DeviceAllocatorTest, InjectedFaultsStrikeDrawsFromAReservation) {
  FaultInjector injector;
  DeviceAllocator allocator(1000, &injector);
  DeviceAllocation reservation = allocator.Reserve(500);
  ASSERT_TRUE(reservation.valid());
  injector.SetSchedule(FaultSite::kDeviceAlloc,
                       FaultSchedule::Always(FaultKind::kHeapExhausted));
  auto drawn = allocator.Allocate(100, "x", &reservation);
  EXPECT_TRUE(drawn.status().IsResourceExhausted());
  EXPECT_EQ(allocator.failed_allocations(), 1u);
  EXPECT_EQ(reservation.bytes(), 500u);
}

TEST(DeviceAllocatorTest, FailureInjection) {
  FaultInjector injector;
  DeviceAllocator allocator(1000, &injector);
  FaultSchedule schedule = FaultSchedule::Always(FaultKind::kHeapExhausted);
  schedule.min_bytes = 11;  // only allocations of more than 10 bytes fault
  injector.SetSchedule(FaultSite::kDeviceAlloc, schedule);
  EXPECT_TRUE(allocator.Allocate(10, "small").ok());
  Result<DeviceAllocation> large = allocator.Allocate(11, "large");
  ASSERT_FALSE(large.ok());
  EXPECT_TRUE(large.status().IsResourceExhausted());
  EXPECT_EQ(allocator.failed_allocations(), 1u);
  EXPECT_EQ(injector.faults_injected(FaultSite::kDeviceAlloc,
                                     FaultKind::kHeapExhausted),
            1u);
  injector.ClearAll();
  EXPECT_TRUE(allocator.Allocate(11, "large again").ok());
}

TEST(DeviceAllocatorTest, ConcurrentAllocationsNeverOvercommit) {
  DeviceAllocator allocator(1000);
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto a = allocator.Allocate(100, "x");
        if (a.ok()) {
          successes.fetch_add(1);
          EXPECT_LE(allocator.used(), 1000u);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(allocator.used(), 0u);
  EXPECT_GT(successes.load(), 0);
}

TEST(SimClockTest, AccumulatesChargedTime) {
  SimClock clock(/*simulate=*/false, 1.0);
  clock.Charge(100);
  clock.Charge(250);
  clock.Charge(-5);  // ignored
  EXPECT_EQ(clock.total_charged_micros(), 350);
}

TEST(SimClockTest, SimulationSleepsApproximatelyScaledTime) {
  SimClock clock(/*simulate=*/true, 0.5);
  const auto start = std::chrono::steady_clock::now();
  clock.Charge(10000);  // 10ms modeled, 5ms scaled
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 4.5);
  EXPECT_LT(elapsed_ms, 50.0);  // generous upper bound for CI noise
}

TEST(PcieBusTest, AccountsBytesAndTimePerDirection) {
  SimClock clock(false, 1.0);
  PcieBus bus(/*bandwidth_mbps=*/100, &clock);
  bus.Transfer(1000, TransferDirection::kHostToDevice);
  bus.Transfer(500, TransferDirection::kDeviceToHost);
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kHostToDevice), 1000u);
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kDeviceToHost), 500u);
  // 1000 bytes at 100 MB/s == 10 us.
  EXPECT_EQ(bus.transfer_micros(TransferDirection::kHostToDevice), 10);
  EXPECT_EQ(bus.transfer_micros(TransferDirection::kDeviceToHost), 5);
  EXPECT_EQ(bus.transfer_count(TransferDirection::kHostToDevice), 1u);
  bus.ResetStats();
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kHostToDevice), 0u);
}

TEST(PcieBusTest, ZeroByteTransferIsFree) {
  SimClock clock(false, 1.0);
  PcieBus bus(100, &clock);
  bus.Transfer(0, TransferDirection::kHostToDevice);
  EXPECT_EQ(bus.transfer_count(TransferDirection::kHostToDevice), 0u);
}

TEST(SimulatorTest, EstimatesFollowThroughputTable) {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 100;
  config.gpu_throughput.scan_mbps = 1000;
  config.pcie_mbps = 50;
  Simulator sim(config);
  EXPECT_DOUBLE_EQ(
      sim.EstimateComputeMicros(ProcessorKind::kCpu, OpClass::kScan, 1000),
      10.0);
  EXPECT_DOUBLE_EQ(
      sim.EstimateComputeMicros(ProcessorKind::kGpu, OpClass::kScan, 1000),
      1.0);
  EXPECT_DOUBLE_EQ(sim.EstimateTransferMicros(1000), 20.0);
}

TEST(SimulatorTest, AllOpClassesHaveThroughputs) {
  Simulator sim(FastConfig());
  for (OpClass op : {OpClass::kScan, OpClass::kJoin, OpClass::kAggregate,
                     OpClass::kSort, OpClass::kProject, OpClass::kMaterialize}) {
    EXPECT_GT(sim.EstimateComputeMicros(ProcessorKind::kCpu, op, 1 << 20), 0);
    EXPECT_GT(sim.EstimateComputeMicros(ProcessorKind::kGpu, op, 1 << 20), 0);
    // The device is modeled faster than the CPU for every operator class.
    EXPECT_LT(sim.EstimateComputeMicros(ProcessorKind::kGpu, op, 1 << 20),
              sim.EstimateComputeMicros(ProcessorKind::kCpu, op, 1 << 20));
  }
}

TEST(SimulatorTest, HeapCapacityFollowsConfig) {
  SystemConfig config = FastConfig();
  config.device_memory_bytes = 1000;
  config.device_cache_bytes = 400;
  Simulator sim(config);
  EXPECT_EQ(sim.device_heap().capacity(), 600u);
}

TEST(SimulatorTest, ChargeComputeAccumulatesClock) {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 100;
  config.cpu_workers = 1;  // the clock counts work / cores: here all of it
  Simulator sim(config);
  sim.ChargeCompute(ProcessorKind::kCpu, OpClass::kScan, 1000);
  EXPECT_EQ(sim.clock().total_charged_micros(), 10);
  sim.ChargeCompute(ProcessorKind::kGpu, OpClass::kScan, 1 << 20);
  EXPECT_GT(sim.clock().total_charged_micros(), 10);
}

// The CPU scheduler's bookkeeping, driven with explicit wall times (micros)
// and no sleeps: four cores at time scale 1, so a kernel of work W alone on
// the machine finishes W / 4 after it arrives.
constexpr int kCores = 4;
using Kernel = CpuScheduler::Kernel;

/// Plays the scheduler forward as the waiting threads would: at the running
/// kernel's projected finish its thread finds it done and departs. Returns
/// the departures in order, each with its time.
std::vector<std::pair<const Kernel*, double>> Drain(
    CpuScheduler& scheduler, std::vector<Kernel*> kernels) {
  std::vector<std::pair<const Kernel*, double>> departures;
  while (!kernels.empty()) {
    auto running = std::find_if(kernels.begin(), kernels.end(),
                                [](const Kernel* k) { return k->cores > 0; });
    EXPECT_NE(running, kernels.end());
    if (running == kernels.end()) break;
    EXPECT_EQ((*running)->cores, kCores);
    const double now = (*running)->finish;
    scheduler.Update(now);
    EXPECT_TRUE((*running)->done());
    scheduler.Depart(*running, now);
    departures.emplace_back(*running, now);
    kernels.erase(running);
  }
  return departures;
}

TEST(CpuSchedulerTest, IdleMachineGivesOneKernelEveryCore) {
  CpuScheduler scheduler(kCores, 1.0);
  Kernel kernel;
  scheduler.Arrive(&kernel, 400, 1000);
  EXPECT_EQ(kernel.cores, kCores);
  EXPECT_DOUBLE_EQ(kernel.finish, 1100);
  scheduler.Update(1050);
  EXPECT_DOUBLE_EQ(kernel.remaining, 200);
  EXPECT_FALSE(kernel.done());
  scheduler.Update(1100);
  EXPECT_TRUE(kernel.done());
  EXPECT_EQ(kernel.waited, 0);
  scheduler.Depart(&kernel, 1100);

  // The time scale stretches the wall time, not the work.
  CpuScheduler scaled(kCores, 0.5);
  Kernel fast;
  scaled.Arrive(&fast, 400, 0);
  EXPECT_DOUBLE_EQ(fast.finish, 50);
  scaled.Depart(&fast, 50);
}

TEST(CpuSchedulerTest, ShortKernelPreemptsALongOne) {
  CpuScheduler scheduler(kCores, 1.0);
  Kernel long_kernel;
  Kernel short_kernel;
  scheduler.Arrive(&long_kernel, 4000, 0);
  EXPECT_DOUBLE_EQ(long_kernel.finish, 1000);
  // During the long kernel's run, with 3200 of its work left.
  scheduler.Arrive(&short_kernel, 400, 200);
  EXPECT_DOUBLE_EQ(long_kernel.remaining, 3200);
  EXPECT_EQ(short_kernel.cores, kCores);
  EXPECT_EQ(long_kernel.cores, 0);
  // The short kernel finishes at its arrival plus its solo time ...
  const auto departures = Drain(scheduler, {&long_kernel, &short_kernel});
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0].first, &short_kernel);
  EXPECT_DOUBLE_EQ(departures[0].second, 300);
  EXPECT_EQ(short_kernel.waited, 0);
  // ... and the long one finishes later by exactly that solo time.
  EXPECT_EQ(departures[1].first, &long_kernel);
  EXPECT_DOUBLE_EQ(departures[1].second, 1100);
  EXPECT_DOUBLE_EQ(long_kernel.waited, 100);
}

TEST(CpuSchedulerTest, EqualRemainingWorkRunsInArrivalOrder) {
  CpuScheduler scheduler(kCores, 1.0);
  Kernel first;
  Kernel second;
  Kernel third;
  scheduler.Arrive(&first, 800, 0);
  // At 100 the first kernel has 400 left, as much as the second brings: the
  // earlier arrival keeps the cores.
  scheduler.Arrive(&second, 400, 100);
  EXPECT_EQ(first.cores, kCores);
  EXPECT_EQ(second.cores, 0);
  scheduler.Arrive(&third, 400, 150);
  const auto departures = Drain(scheduler, {&third, &second, &first});
  ASSERT_EQ(departures.size(), 3u);
  EXPECT_EQ(departures[0].first, &first);
  EXPECT_DOUBLE_EQ(departures[0].second, 200);
  EXPECT_EQ(departures[1].first, &second);
  EXPECT_DOUBLE_EQ(departures[1].second, 300);
  EXPECT_EQ(departures[2].first, &third);
  EXPECT_DOUBLE_EQ(departures[2].second, 400);
}

TEST(CpuSchedulerTest, KernelsArrivingTogetherFinishBySummedWorkOverCores) {
  CpuScheduler scheduler(kCores, 1.0);
  const std::vector<double> work = {900, 100, 400, 2000, 250, 400};
  std::vector<std::unique_ptr<Kernel>> owned;
  std::vector<Kernel*> kernels;
  for (double w : work) {
    owned.push_back(std::make_unique<Kernel>());
    kernels.push_back(owned.back().get());
    scheduler.Arrive(kernels.back(), w, 0);
  }
  const auto departures = Drain(scheduler, kernels);
  ASSERT_EQ(departures.size(), work.size());
  // Shortest first, the two 400s in arrival order; no core ever idles, so
  // each kernel leaves when the work up to and including its own is done.
  const std::vector<size_t> order = {1, 4, 2, 5, 0, 3};
  double done = 0;
  for (size_t i = 0; i < departures.size(); ++i) {
    EXPECT_EQ(departures[i].first, kernels[order[i]]) << i;
    done += work[order[i]];
    EXPECT_DOUBLE_EQ(departures[i].second, done / kCores) << i;
  }
  EXPECT_DOUBLE_EQ(departures.back().second,
                   std::accumulate(work.begin(), work.end(), 0.0) / kCores);
}

TEST(CpuSchedulerTest, ClockOnlyModeNeverEntersTheScheduler) {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 1.0;  // one byte, one modeled micro
  Simulator sim(config);
  // 40 modeled seconds: in the scheduler this would block for 10 s.
  const auto start = std::chrono::steady_clock::now();
  sim.ChargeCompute(ProcessorKind::kCpu, OpClass::kScan, 40'000'000);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(sim.clock().total_charged_micros(),
            40'000'000 / config.cpu_workers);
}

TEST(CpuSchedulerTest, ConcurrentKernelsAllReturnAndTheClockAddsUp) {
  SystemConfig config;
  config.simulate_time = true;
  config.time_scale = 1e-4;
  config.cpu_throughput.scan_mbps = 1.0;  // one byte, one modeled micro
  Simulator sim(config);
  constexpr int kThreads = 8;
  constexpr int kKernels = 50;
  const size_t sizes[] = {1, 300, 20'000, 1'000'000, 4'000};
  auto bytes = [&sizes](int thread, int kernel) {
    return sizes[static_cast<size_t>(thread + kernel) % std::size(sizes)];
  };
  int64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKernels; ++i) {
      expected += static_cast<int64_t>(static_cast<double>(bytes(t, i)) /
                                       config.cpu_workers);
    }
  }
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKernels; ++i) {
        sim.ChargeCompute(ProcessorKind::kCpu, OpClass::kScan, bytes(t, i));
        returned.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(returned.load(), kThreads * kKernels);
  EXPECT_EQ(sim.clock().total_charged_micros(), expected);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        sem.Acquire();
        const int now = inside.fetch_add(1) + 1;
        int expected = max_inside.load();
        while (now > expected &&
               !max_inside.compare_exchange_weak(expected, now)) {
        }
        inside.fetch_sub(1);
        sem.Release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_inside.load(), 2);
}

}  // namespace
}  // namespace hetdb
