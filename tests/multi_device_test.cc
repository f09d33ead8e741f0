// Multi-device simulation tests: a machine with N co-processors must be
// *observably* N devices (per-device heaps, caches, buses, breakers, metric
// namespaces) and *semantically* invisible — every strategy returns the
// bit-identical single-device / CPU result at every device count, and the
// per-query attribution totals mirror the simulator's own global counters.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace hetdb {
namespace {

DatabasePtr SsbDb() {
  static DatabasePtr db = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 0.1;
    return GenerateSsbDatabase(options);
  }();
  return db;
}

DatabasePtr TpchDb() {
  static DatabasePtr db = [] {
    TpchGeneratorOptions options;
    options.scale_factor = 0.05;
    return GenerateTpchDatabase(options);
  }();
  return db;
}

SystemConfig DeviceConfig(int device_count) {
  SystemConfig config = TestConfig();
  config.device_count = device_count;
  return config;
}

TablePtr RunOne(EngineContext& ctx, StrategyRunner& runner,
                const NamedQuery& query) {
  Result<PlanNodePtr> plan = query.builder(*ctx.database());
  EXPECT_TRUE(plan.ok()) << query.name;
  Result<TablePtr> result = runner.RunQuery(plan.value());
  EXPECT_TRUE(result.ok()) << query.name << ": "
                           << result.status().ToString();
  return result.ok() ? result.value() : nullptr;
}

/// CPU reference, computed once per (db, query).
TablePtr Reference(const DatabasePtr& db, const NamedQuery& query) {
  EngineContext ctx(TestConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  return RunOne(ctx, runner, query);
}

const Strategy kAllStrategies[] = {
    Strategy::kCpuOnly,      Strategy::kGpuOnly,
    Strategy::kCriticalPath, Strategy::kDataDriven,
    Strategy::kRunTime,      Strategy::kChopping,
    Strategy::kDataDrivenChopping,
};

// ---------------------------------------------------------------------------
// Cross-device result parity
// ---------------------------------------------------------------------------

/// SSB queries: bit-identical results on 1-, 2-, 4-, and 8-device machines
/// under every placement strategy.
TEST(MultiDeviceParityTest, SsbResultsIdenticalAcrossDeviceCounts) {
  DatabasePtr db = SsbDb();
  const std::vector<NamedQuery> queries = {
      SsbQueryByName("Q1.1").value(), SsbQueryByName("Q2.1").value(),
      SsbQueryByName("Q3.1").value(), SsbQueryByName("Q4.1").value()};
  for (const NamedQuery& query : queries) {
    TablePtr expected = Reference(db, query);
    ASSERT_NE(expected, nullptr);
    for (const int devices : {1, 2, 4, 8}) {
      for (const Strategy strategy : kAllStrategies) {
        EngineContext ctx(DeviceConfig(devices), db);
        StrategyRunner runner(&ctx, strategy);
        runner.RefreshDataPlacement();
        TablePtr actual = RunOne(ctx, runner, query);
        ASSERT_NE(actual, nullptr)
            << query.name << " " << StrategyToString(strategy) << " x"
            << devices;
        EXPECT_TRUE(TablesEqual(*expected, *actual))
            << query.name << " " << StrategyToString(strategy) << " x"
            << devices;
      }
    }
  }
}

/// TPC-H subset: same contract on the second schema, trimmed to the
/// runtime-placement strategies (the compile-time family shares the executor
/// exercised above).
TEST(MultiDeviceParityTest, TpchResultsIdenticalAcrossDeviceCounts) {
  DatabasePtr db = TpchDb();
  const std::vector<NamedQuery> queries = {TpchQueryByName("Q3").value(),
                                           TpchQueryByName("Q6").value()};
  for (const NamedQuery& query : queries) {
    TablePtr expected = Reference(db, query);
    ASSERT_NE(expected, nullptr);
    for (const int devices : {1, 2, 4, 8}) {
      for (const Strategy strategy :
           {Strategy::kGpuOnly, Strategy::kDataDrivenChopping}) {
        EngineContext ctx(DeviceConfig(devices), db);
        StrategyRunner runner(&ctx, strategy);
        runner.RefreshDataPlacement();
        TablePtr actual = RunOne(ctx, runner, query);
        ASSERT_NE(actual, nullptr)
            << query.name << " " << StrategyToString(strategy) << " x"
            << devices;
        EXPECT_TRUE(TablesEqual(*expected, *actual))
            << query.name << " " << StrategyToString(strategy) << " x"
            << devices;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-device attribution parity
// ---------------------------------------------------------------------------

/// One query on a fresh 4-device machine: the query's per-device transfer
/// and allocation attribution must mirror the simulator's own per-bus and
/// global counters exactly — nothing double-charged, nothing dropped.
TEST(MultiDeviceStatsTest, QueryStatsMirrorSimulatorCounters) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ctx.ResetRunStats();

  Result<PlanNodePtr> plan = SsbQueryByName("Q2.1").value().builder(*db);
  ASSERT_TRUE(plan.ok());
  auto stats = MakeQueryStats(plan.value());
  Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int64_t h2d_sum = 0;
  int64_t d2h_sum = 0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    const PcieBus& bus = ctx.simulator().bus(d);
    EXPECT_EQ(static_cast<uint64_t>(stats->h2d_bytes(d)),
              bus.transferred_bytes(TransferDirection::kHostToDevice))
        << "device " << d;
    EXPECT_EQ(static_cast<uint64_t>(stats->d2h_bytes(d)),
              bus.transferred_bytes(TransferDirection::kDeviceToHost))
        << "device " << d;
    h2d_sum += stats->h2d_bytes(d);
    d2h_sum += stats->d2h_bytes(d);
    EXPECT_LE(static_cast<size_t>(stats->device_heap_high_water(d)),
              ctx.simulator().device_heap(d).capacity())
        << "device " << d;
  }
  // The global aggregates are exactly the device breakdowns, re-summed.
  EXPECT_EQ(stats->h2d_bytes(), h2d_sum);
  EXPECT_EQ(stats->d2h_bytes(), d2h_sum);
  EXPECT_GT(stats->h2d_bytes(), 0);  // GPU-Only moved data somewhere
}

/// Per-device telemetry counters: operators recorded on device d land in
/// "engine.gpu_operators.device<d>", and their sum matches the global
/// counter.
TEST(MultiDeviceStatsTest, PerDeviceOperatorCountersSumToGlobal) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  for (const char* name : {"Q1.1", "Q2.1", "Q3.1", "Q4.1"}) {
    Result<PlanNodePtr> plan = SsbQueryByName(name).value().builder(*db);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(runner.RunQuery(plan.value()).ok()) << name;
  }
  uint64_t per_device_sum = 0;
  int devices_used = 0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    const uint64_t ops = ctx.telemetry().gpu_operators(d);
    per_device_sum += ops;
    if (ops > 0) ++devices_used;
  }
  EXPECT_EQ(per_device_sum, ctx.telemetry().gpu_operators());
  EXPECT_GT(per_device_sum, 0u);
  // Sharding must actually spread the four queries over the machine.
  EXPECT_GE(devices_used, 2) << "all operators landed on one device";
}

// ---------------------------------------------------------------------------
// Device-aware sharding
// ---------------------------------------------------------------------------

/// The placement job shards the column working set: a column is cached on
/// its affinity home only — no device caches another device's shard.
TEST(MultiDeviceShardingTest, PlacementJobBuildsDisjointShards) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  StrategyRunner runner(&ctx, Strategy::kDataDriven);
  // Touch the columns so the placement job sees access frequencies.
  for (const char* name : {"Q1.1", "Q2.1", "Q3.1"}) {
    Result<PlanNodePtr> plan = SsbQueryByName(name).value().builder(*db);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(runner.RunQuery(plan.value()).ok());
  }
  runner.RefreshDataPlacement();

  std::set<std::string> seen;
  int devices_with_content = 0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    const std::vector<std::string> keys = ctx.cache(d).CachedKeys();
    if (!keys.empty()) ++devices_with_content;
    for (const std::string& key : keys) {
      EXPECT_TRUE(seen.insert(key).second)
          << key << " cached on two devices";
      EXPECT_EQ(ctx.sharding().AffinityDevice(key), d)
          << key << " cached off its affinity home";
    }
  }
  EXPECT_GE(devices_with_content, 2);
}

/// PickDevice prefers the device already holding the inputs over empty
/// round-robin candidates.
TEST(MultiDeviceShardingTest, PickDevicePrefersResidency) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  // Inputs resident on device 2 dominate the choice, and a big input
  // outweighs a small one on another device (migrating the small side is
  // cheaper at the paper's 100 MB/s PCIe).
  EXPECT_EQ(ctx.sharding().PickDevice({}, {{2, 4096}, {2, 4096}}), 2);
  EXPECT_EQ(
      ctx.sharding().PickDevice({}, {{1, 64 << 10}, {3, 4 << 20}}), 3);
  // A cached base column pulls its scan home.
  const std::string key = "lineorder.lo_quantity";
  const int home = ctx.sharding().AffinityDevice(key);
  ASSERT_GE(home, 0);
  Result<ColumnPtr> column = db->GetColumnByQualifiedName(key);
  ASSERT_TRUE(column.ok());
  ASSERT_TRUE(ctx.cache(home).Pin(column.value(), key).ok());
  EXPECT_EQ(ctx.sharding().PickDevice({key}, {}), home);
}

/// The query home is deterministic per plan shape, spreads distinct query
/// templates over the devices, and biases device picks: the home wins over
/// empty candidates but loses to a large resident input elsewhere.
TEST(MultiDeviceShardingTest, QueryHomeSpreadsTemplatesAndBiasesPicks) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  std::set<int> homes;
  for (const NamedQuery& query : SsbQueries()) {
    Result<PlanNodePtr> plan_a = query.builder(*db);
    Result<PlanNodePtr> plan_b = query.builder(*db);
    ASSERT_TRUE(plan_a.ok() && plan_b.ok()) << query.name;
    const int home = ctx.sharding().QueryHomeDevice(*plan_a.value());
    ASSERT_GE(home, 0) << query.name;
    ASSERT_LT(home, 4) << query.name;
    // Two builds of the same template hash to the same home.
    EXPECT_EQ(ctx.sharding().QueryHomeDevice(*plan_b.value()), home)
        << query.name;
    homes.insert(home);
  }
  // 13 templates over 4 devices: the footprint hash must use >1 device.
  EXPECT_GE(homes.size(), 2u);
  // The home bonus beats cold round-robin but yields to a 1 MiB resident
  // input on another device.
  const int home = *homes.begin();
  EXPECT_EQ(ctx.sharding().PickDevice({}, {}, home), home);
  const int other = (home + 1) % 4;
  EXPECT_EQ(ctx.sharding().PickDevice({}, {{other, 1 << 20}}, home),
            other);
}

/// With nothing resident anywhere, keyless operators round-robin across all
/// live devices instead of piling onto device 0.
TEST(MultiDeviceShardingTest, ColdPicksSpreadAcrossDevices) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  std::set<int> picked;
  for (int i = 0; i < 16; ++i) {
    const int device = ctx.sharding().PickDevice({}, {});
    ASSERT_GE(device, 0);
    ASSERT_LT(device, 4);
    picked.insert(device);
  }
  EXPECT_EQ(picked.size(), 4u);
}

/// Device 0 keeps the legacy un-prefixed metric names; device d > 0 gets
/// the "device<d>." namespace — tripping one breaker must not bleed into
/// another's metrics.
TEST(MultiDeviceTelemetryTest, PerDeviceMetricNamespaces) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(3), db);
  ctx.breaker(1).RecordDeviceAbort(/*device_lost=*/true);
  EXPECT_EQ(
      ctx.telemetry().registry().GetCounter("device1.breaker.trips").value(),
      1);
  EXPECT_EQ(ctx.telemetry().registry().GetCounter("breaker.trips").value(), 0);
  EXPECT_EQ(
      ctx.telemetry().registry().GetCounter("device2.breaker.trips").value(),
      0);
  EXPECT_FALSE(ctx.breaker(1).device_available());
  EXPECT_TRUE(ctx.breaker(0).device_available());
  EXPECT_TRUE(ctx.breaker(2).device_available());
}

// ---------------------------------------------------------------------------
// D2D path accounting
// ---------------------------------------------------------------------------

/// With a dedicated D2D link, device-to-device migration charges the D2D
/// counters and neither PCIe bus; without one it stages through the host,
/// paying D2H on the source bus and H2D on the destination bus.
TEST(MultiDeviceD2DTest, DedicatedLinkVersusHostStaged) {
  SystemConfig with_link = TestConfig();
  with_link.device_count = 2;
  with_link.d2d_mbps = 1000.0;
  {
    Simulator sim(with_link);
    ASSERT_TRUE(sim.TransferDeviceToDevice(1 << 20, 0, 1).ok());
    EXPECT_EQ(sim.d2d_bytes(), static_cast<uint64_t>(1 << 20));
    EXPECT_EQ(sim.d2d_transfer_count(), 1u);
    EXPECT_EQ(sim.bus(0).transferred_bytes(TransferDirection::kDeviceToHost),
              0u);
    EXPECT_EQ(sim.bus(1).transferred_bytes(TransferDirection::kHostToDevice),
              0u);
  }
  SystemConfig host_staged = TestConfig();
  host_staged.device_count = 2;
  host_staged.d2d_mbps = 0.0;
  {
    Simulator sim(host_staged);
    ASSERT_TRUE(sim.TransferDeviceToDevice(1 << 20, 0, 1).ok());
    EXPECT_EQ(sim.d2d_bytes(), 0u);
    EXPECT_EQ(sim.bus(0).transferred_bytes(TransferDirection::kDeviceToHost),
              static_cast<uint64_t>(1 << 20));
    EXPECT_EQ(sim.bus(1).transferred_bytes(TransferDirection::kHostToDevice),
              static_cast<uint64_t>(1 << 20));
  }
}

// ---------------------------------------------------------------------------
// Rebalancing
// ---------------------------------------------------------------------------

/// RebalanceAway moves a tripped-but-reachable device's resident columns to
/// their surviving affinity homes over the D2D path and empties the source.
TEST(MultiDeviceRebalanceTest, ReachableSourceMigratesOverD2D) {
  DatabasePtr db = SsbDb();
  SystemConfig config = DeviceConfig(4);
  config.d2d_mbps = 1000.0;
  EngineContext ctx(config, db);
  const std::string key = "lineorder.lo_quantity";
  ColumnPtr column = db->GetColumnByQualifiedName(key).value();
  ASSERT_TRUE(ctx.cache(2).Pin(column, key).ok());

  ctx.sharding().MarkDeviceLost(2);
  const int moved = ctx.sharding().RebalanceAway(2, /*source_reachable=*/true);
  EXPECT_EQ(moved, 1);
  EXPECT_GT(ctx.simulator().d2d_bytes(), 0u);
  EXPECT_EQ(ctx.cache(2).used_bytes(), 0u);
  const int home = ctx.sharding().AffinityDevice(key);
  ASSERT_GE(home, 0);
  ASSERT_NE(home, 2);  // 2 is dead, affinity re-hashes over survivors
  EXPECT_TRUE(ctx.cache(home).IsCached(key));
}

/// An unreachable (lost) device's shard is re-sourced from the host copy
/// over the survivors' own PCIe links instead.
TEST(MultiDeviceRebalanceTest, LostSourceReloadsFromHost) {
  DatabasePtr db = SsbDb();
  EngineContext ctx(DeviceConfig(4), db);
  const std::string key = "lineorder.lo_discount";
  ColumnPtr column = db->GetColumnByQualifiedName(key).value();
  ASSERT_TRUE(ctx.cache(1).Pin(column, key).ok());
  ctx.ResetRunStats();

  ctx.sharding().MarkDeviceLost(1);
  const int moved = ctx.sharding().RebalanceAway(1, /*source_reachable=*/false);
  EXPECT_EQ(moved, 1);
  EXPECT_EQ(ctx.simulator().d2d_bytes(), 0u);
  EXPECT_EQ(ctx.cache(1).used_bytes(), 0u);
  const int home = ctx.sharding().AffinityDevice(key);
  ASSERT_GE(home, 0);
  EXPECT_TRUE(ctx.cache(home).IsCached(key));
  // The reload crossed the survivor's bus, not the dead device's.
  EXPECT_GT(ctx.simulator().bus(home).transferred_bytes(
                TransferDirection::kHostToDevice),
            0u);
  EXPECT_EQ(ctx.simulator().bus(1).transferred_bytes(
                TransferDirection::kHostToDevice),
            0u);
}

}  // namespace
}  // namespace hetdb
