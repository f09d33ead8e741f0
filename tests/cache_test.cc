#include <gtest/gtest.h>

#include <thread>

#include "cache/data_cache.h"

namespace hetdb {
namespace {

class DataCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig config;
    config.simulate_time = false;
    simulator_ = std::make_unique<Simulator>(config);
  }

  ColumnPtr MakeColumn(const std::string& name, size_t rows) {
    return std::make_shared<Int32Column>(name,
                                         std::vector<int32_t>(rows, 1));
  }

  std::unique_ptr<Simulator> simulator_;
};

TEST_F(DataCacheTest, MissThenHit) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr column = MakeColumn("a", 100);  // 400 bytes

  auto first = cache.RequireOnDevice(column, "t.a");
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.resident);
  EXPECT_TRUE(first.lease.valid());
  first.lease.Release();

  auto second = cache.RequireOnDevice(column, "t.a");
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.resident);

  const DataCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.used_bytes(), 400u);
}

TEST_F(DataCacheTest, MissPaysBusTransferOnce) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr column = MakeColumn("a", 100);
  { auto access = cache.RequireOnDevice(column, "t.a"); }
  { auto access = cache.RequireOnDevice(column, "t.a"); }
  EXPECT_EQ(
      simulator_->bus().transferred_bytes(TransferDirection::kHostToDevice),
      400u);
}

TEST_F(DataCacheTest, LruEvictsLeastRecentlyUsed) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(b, "t.b");
  cache.RequireOnDevice(a, "t.a");  // a more recent than b
  cache.RequireOnDevice(c, "t.c");  // 1200 bytes needed -> evict b
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(DataCacheTest, LfuEvictsLeastFrequentlyUsed) {
  DataCache cache(1000, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(a, "t.a");  // a: 3 accesses
  cache.RequireOnDevice(b, "t.b");  // b: 1 access
  cache.RequireOnDevice(a, "t.a");  // a: 4 accesses (and most recent)
  cache.RequireOnDevice(c, "t.c");  // evicts b (LFU)
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.c"));
}

TEST_F(DataCacheTest, TransientWhenNothingFits) {
  DataCache cache(300, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr big = MakeColumn("big", 200);  // 800 bytes > capacity
  auto access = cache.RequireOnDevice(big, "t.big");
  EXPECT_FALSE(access.hit);
  EXPECT_FALSE(access.resident);
  EXPECT_FALSE(access.lease.valid());
  // The transfer still happened (into heap, paid by the caller).
  EXPECT_EQ(
      simulator_->bus().transferred_bytes(TransferDirection::kHostToDevice),
      800u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST_F(DataCacheTest, TransientWithoutHeapRoomMovesNoBytes) {
  SystemConfig config;
  config.simulate_time = false;
  config.device_memory_bytes = 300 + 500;  // 500-byte heap beside the cache
  config.device_cache_bytes = 300;
  Simulator simulator(config);
  DataCache cache(300, EvictionPolicy::kLru, &simulator);
  ColumnPtr big = MakeColumn("big", 200);  // 800 bytes: fits neither
  auto access = cache.RequireOnDevice(big, "t.big");
  EXPECT_TRUE(access.status.IsResourceExhausted()) << access.status.ToString();
  EXPECT_FALSE(access.resident);
  EXPECT_FALSE(access.heap_buffer.valid());
  EXPECT_EQ(
      simulator.bus().transferred_bytes(TransferDirection::kHostToDevice), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(simulator.device_heap().used(), 0u);
}

TEST_F(DataCacheTest, TransientHeapBufferLivesAsLongAsTheAccess) {
  DataCache cache(300, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr big = MakeColumn("big", 200);
  {
    auto access = cache.RequireOnDevice(big, "t.big");
    ASSERT_TRUE(access.status.ok()) << access.status.ToString();
    EXPECT_FALSE(access.resident);
    EXPECT_EQ(access.heap_buffer.bytes(), cache.EntryBytes(*big));
    EXPECT_EQ(simulator_->device_heap().used(), cache.EntryBytes(*big));
  }
  EXPECT_EQ(simulator_->device_heap().used(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST_F(DataCacheTest, TransientTransferFaultReleasesHeapBuffer) {
  DataCache cache(300, EvictionPolicy::kLru, simulator_.get());
  simulator_->fault_injector().SetSchedule(
      FaultSite::kTransfer, FaultSchedule::Always(FaultKind::kTransient));
  ColumnPtr big = MakeColumn("big", 200);
  auto access = cache.RequireOnDevice(big, "t.big");
  EXPECT_FALSE(access.status.ok());
  EXPECT_FALSE(access.heap_buffer.valid());
  // The buffer was granted before the transfer, then given back.
  EXPECT_EQ(simulator_->device_heap().peak_used(), cache.EntryBytes(*big));
  EXPECT_EQ(simulator_->device_heap().used(), 0u);
  EXPECT_EQ(cache.stats().load_failures, 1u);
}

TEST_F(DataCacheTest, LeasedEntriesAreNotEvicted) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  auto lease_a = cache.RequireOnDevice(a, "t.a");  // hold the lease
  cache.RequireOnDevice(b, "t.b");
  // Inserting c (400 bytes) into 800-byte cache requires evicting one entry;
  // a is leased, so b must go even though a is older.
  auto access_c = cache.RequireOnDevice(c, "t.c");
  EXPECT_TRUE(access_c.resident);
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
}

TEST_F(DataCacheTest, EvictionDeferredUntilLeaseRelease) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100);
  auto lease_a = cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(b, "t.b");
  // Placement job selects only b: a is marked for eviction but leased.
  b->RecordAccess();
  cache.RunPlacementJob({{"t.b", b}});
  EXPECT_FALSE(cache.IsCached("t.a"));  // pending eviction: not usable
  EXPECT_GE(cache.used_bytes(), 800u);  // but bytes still occupied
  lease_a.lease.Release();
  EXPECT_EQ(cache.used_bytes(), 400u);  // dropped on last release
}

TEST_F(DataCacheTest, PlacementJobSelectsMostFrequentColumns) {
  DataCache cache(800, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  // Simulate query-processing access counts.
  for (int i = 0; i < 10; ++i) a->RecordAccess();
  for (int i = 0; i < 5; ++i) c->RecordAccess();
  b->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}, {"t.b", b}, {"t.c", c}});
  // Budget fits two columns: the two most frequently accessed.
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.c"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_EQ(cache.stats().placement_job_runs, 1u);
}

TEST_F(DataCacheTest, PlacementJobEvictsDeselectedColumns) {
  DataCache cache(800, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100);
  a->RecordAccess();
  b->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}, {"t.b", b}});
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.b"));
  // Access pattern shifts: now only b is hot and a new column d joins.
  b->RecordAccess();
  b->RecordAccess();
  ColumnPtr d = MakeColumn("d", 100);
  d->RecordAccess();
  cache.RunPlacementJob({{"t.b", b}, {"t.d", d}});
  EXPECT_FALSE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.d"));
}

TEST_F(DataCacheTest, PlacementJobRespectsBudget) {
  DataCache cache(700, EvictionPolicy::kLfu, simulator_.get());
  std::vector<std::pair<std::string, ColumnPtr>> columns;
  for (int i = 0; i < 5; ++i) {
    ColumnPtr c = MakeColumn("c" + std::to_string(i), 100);  // 400 bytes
    for (int k = 0; k < 5 - i; ++k) c->RecordAccess();
    columns.emplace_back("t.c" + std::to_string(i), c);
  }
  cache.RunPlacementJob(columns);
  EXPECT_LE(cache.used_bytes(), 700u);
  // Greedy fill by access count: c0 (most accessed) fits, c1 does not (800 >
  // 700), later smaller... all are equal-sized, so exactly one fits.
  EXPECT_TRUE(cache.IsCached("t.c0"));
  EXPECT_EQ(cache.CachedKeys().size(), 1u);
}

TEST_F(DataCacheTest, PlacementJobPinsAgainstDemandEviction) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  a->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}});
  // Demand-insert two more: only one fits besides pinned a, and a must stay.
  ColumnPtr b = MakeColumn("b", 100), c = MakeColumn("c", 100);
  cache.RequireOnDevice(b, "t.b");
  cache.RequireOnDevice(c, "t.c");
  EXPECT_TRUE(cache.IsCached("t.a"));
}

TEST_F(DataCacheTest, PinExplicitly) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  ASSERT_TRUE(cache.Pin(a, "t.a").ok());
  EXPECT_TRUE(cache.IsCached("t.a"));
  ColumnPtr big = MakeColumn("big", 250);  // 1000 bytes never fits
  EXPECT_TRUE(cache.Pin(big, "t.big").IsResourceExhausted());
}

TEST_F(DataCacheTest, ClearDropsEverything) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.Clear();
  EXPECT_FALSE(cache.IsCached("t.a"));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

/// A miss on a key whose entry is still leased but pending eviction (a
/// Clear, as when a device is lost) must not replace that entry: the bytes
/// would be counted twice and the old lease would release the new entry.
TEST_F(DataCacheTest, MissOnKeyPendingEvictionLoadsTransiently) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  auto held = cache.RequireOnDevice(a, "t.a");
  ASSERT_TRUE(held.resident);
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 400u);  // still leased
  {
    auto again = cache.RequireOnDevice(a, "t.a");
    ASSERT_TRUE(again.status.ok()) << again.status.ToString();
    EXPECT_FALSE(again.resident);
    EXPECT_EQ(simulator_->device_heap().used(), 400u);
  }
  EXPECT_EQ(simulator_->device_heap().used(), 0u);
  EXPECT_EQ(cache.used_bytes(), 400u);
  held.lease.Release();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.IsCached("t.a"));
}

TEST_F(DataCacheTest, TransientBytesFollowTheAdmissionRule) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);  // 400 bytes each
  ColumnPtr b = MakeColumn("b", 100);
  ColumnPtr c = MakeColumn("c", 100);
  ColumnPtr big = MakeColumn("big", 300);  // 1200 bytes > capacity
  // Cold: a and b would be admitted, c no longer fits beside them.
  EXPECT_EQ(cache.TransientBytes({{"t.a", a}, {"t.b", b}}), 0u);
  EXPECT_EQ(cache.TransientBytes({{"t.a", a}, {"t.b", b}, {"t.c", c}}),
            cache.EntryBytes(*c));
  EXPECT_EQ(cache.TransientBytes({{"t.big", big}}), cache.EntryBytes(*big));
  // A leased a and b: c would have to evict one of them, which it cannot.
  auto lease_a = cache.RequireOnDevice(a, "t.a");
  auto lease_b = cache.RequireOnDevice(b, "t.b");
  EXPECT_EQ(cache.TransientBytes({{"t.c", c}}), cache.EntryBytes(*c));
  // Released, b may be evicted for c, but not while the same scan hits it.
  lease_b.lease.Release();
  EXPECT_EQ(cache.TransientBytes({{"t.c", c}}), 0u);
  EXPECT_EQ(cache.TransientBytes({{"t.b", b}, {"t.c", c}}),
            cache.EntryBytes(*c));
  // The brownout gate closes admission: every miss is transient.
  cache.SetAdmissionGate([] { return false; });
  EXPECT_EQ(cache.TransientBytes({{"t.a", a}, {"t.c", c}}),
            cache.EntryBytes(*c));
}

TEST_F(DataCacheTest, TransientBufferDrawsFromAReservation) {
  DataCache cache(300, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr big = MakeColumn("big", 200);  // 800 bytes > capacity
  DeviceAllocator& heap = simulator_->device_heap();
  DeviceAllocation reservation = heap.Reserve(1000);
  ASSERT_TRUE(reservation.valid());
  auto access = cache.RequireOnDevice(big, "t.big", &reservation);
  ASSERT_TRUE(access.status.ok()) << access.status.ToString();
  EXPECT_EQ(access.heap_buffer.bytes(), 800u);
  EXPECT_EQ(reservation.bytes(), 200u);
  EXPECT_EQ(heap.used(), 1000u);
  reservation.Release();
  EXPECT_EQ(heap.used(), 800u);
}

TEST_F(DataCacheTest, TryGetOnlyHitsExistingEntries) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  EXPECT_FALSE(cache.TryGet("t.a").has_value());
  ColumnPtr a = MakeColumn("a", 100);
  cache.RequireOnDevice(a, "t.a");
  EXPECT_TRUE(cache.TryGet("t.a").has_value());
}

TEST_F(DataCacheTest, ConcurrentAccessIsSafe) {
  DataCache cache(4000, EvictionPolicy::kLru, simulator_.get());
  std::vector<ColumnPtr> columns;
  for (int i = 0; i < 16; ++i) {
    columns.push_back(MakeColumn("c" + std::to_string(i), 100));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int idx = (t * 7 + i) % 16;
        auto access = cache.RequireOnDevice(
            columns[idx], "t.c" + std::to_string(idx));
        if (access.resident) {
          EXPECT_TRUE(access.lease.valid());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.used_bytes(), 4000u);
}

/// The cache-thrashing mechanism of Figure 2: N equally-sized columns
/// accessed round-robin through a cache that holds N-1 of them miss on
/// every access under LRU.
TEST_F(DataCacheTest, RoundRobinOneShortOfCapacityAlwaysMisses) {
  const size_t column_bytes = 400;
  DataCache cache(7 * column_bytes, EvictionPolicy::kLru, simulator_.get());
  std::vector<ColumnPtr> columns;
  for (int i = 0; i < 8; ++i) {
    columns.push_back(MakeColumn("c" + std::to_string(i), 100));
  }
  // Three full rounds over 8 columns.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      cache.RequireOnDevice(columns[i], "t.c" + std::to_string(i));
    }
  }
  const DataCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 24u);
  // With a cache large enough for all 8, rounds 2..3 are pure hits.
  DataCache big_cache(8 * column_bytes, EvictionPolicy::kLru, simulator_.get());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      big_cache.RequireOnDevice(columns[i], "t.c" + std::to_string(i));
    }
  }
  EXPECT_EQ(big_cache.stats().misses, 8u);
  EXPECT_EQ(big_cache.stats().hits, 16u);
}

}  // namespace
}  // namespace hetdb
