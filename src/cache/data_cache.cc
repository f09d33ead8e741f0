#include "cache/data_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

const char* EvictionPolicyToString(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "LRU";
    case EvictionPolicy::kLfu:
      return "LFU";
  }
  return "unknown";
}

DataCache::DataCache(size_t capacity_bytes, EvictionPolicy policy,
                     Simulator* simulator, bool compress_entries,
                     int device_id)
    : capacity_bytes_(capacity_bytes),
      policy_(policy),
      simulator_(simulator),
      compress_entries_(compress_entries),
      device_id_(device_id) {
  HETDB_CHECK(simulator_ != nullptr);
}

DataCache::~DataCache() = default;

void DataCache::SetAdmissionGate(std::function<bool()> gate) {
  std::lock_guard<std::mutex> lock(mutex_);
  admission_gate_ = std::move(gate);
}

void DataCache::Lease::Release() {
  if (cache_ != nullptr) {
    cache_->ReleaseLease(key_);
    cache_ = nullptr;
  }
}

void DataCache::ReleaseLease(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  HETDB_CHECK(entry.ref_count > 0);
  --entry.ref_count;
  if (entry.ref_count == 0 && entry.pending_evict) {
    RemoveEntry(it);
    ++stats_.evictions;
  }
}

bool DataCache::IsCached(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.ready && !it->second.pending_evict;
}

std::optional<DataCache::Lease> DataCache::TryGet(const std::string& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.pending_evict) return std::nullopt;
  // Wait for a concurrent loader to finish the transfer. The entry vanishes
  // if that load's transfer faults, so re-find the key each wake instead of
  // holding a reference across the wait.
  load_cv_.wait(lock, [this, &key] {
    auto current = entries_.find(key);
    return current == entries_.end() || current->second.ready;
  });
  it = entries_.find(key);
  if (it == entries_.end() || it->second.pending_evict) return std::nullopt;
  Entry& entry = it->second;
  ++entry.ref_count;
  entry.last_access = ++access_clock_;
  ++entry.access_count;
  ++stats_.hits;
  return Lease(this, key);
}

size_t DataCache::TransientBytes(
    const std::vector<std::pair<std::string, ColumnPtr>>& columns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Room a miss can be admitted into: free bytes plus what demand eviction
  // may drop, except the columns this scan will hit (and lease).
  size_t room = capacity_bytes_ - std::min(used_bytes_, capacity_bytes_);
  for (const auto& [key, entry] : entries_) {
    if (!Droppable(entry)) continue;
    const bool hit = std::any_of(columns.begin(), columns.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    if (!hit) room += entry.bytes;
  }
  const bool admission_open = AdmissionOpen();
  size_t transient = 0;
  for (const auto& [key, column] : columns) {
    auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.pending_evict) continue;  // hit
    const size_t bytes = EntryBytes(*column);
    if (it == entries_.end() && admission_open && bytes <= room) {
      room -= bytes;  // admitted
    } else {
      transient += bytes;
    }
  }
  return transient;
}

DataCache::Access DataCache::RequireOnDevice(const ColumnPtr& column,
                                             const std::string& key,
                                             DeviceAllocation* reservation) {
  const size_t bytes = EntryBytes(*column);
  // Loop: a waiter whose concurrent loader faulted (entry vanished) retries
  // the access as a fresh miss instead of dangling on the erased entry.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end() && !it->second.pending_evict) {
        // A wait on a concurrent loader still counts as a hit: the data
        // crosses the bus once, not once per waiter. The entry vanishes if
        // that load faults, so re-find the key instead of holding a
        // reference across the wait.
        load_cv_.wait(lock, [this, &key] {
          auto current = entries_.find(key);
          return current == entries_.end() || current->second.ready;
        });
        it = entries_.find(key);
        if (it == entries_.end()) continue;  // loader faulted: retry as miss
        if (!it->second.pending_evict) {
          Entry& entry = it->second;
          ++entry.ref_count;
          entry.last_access = ++access_clock_;
          ++entry.access_count;
          ++stats_.hits;
          Access access;
          access.hit = true;
          access.resident = true;
          access.lease = Lease(this, key);
          return access;
        }
        // Marked for eviction while we waited: treat as a miss below.
      }
      ++stats_.misses;
      // An entry pending eviction still holds the key (and its leases and
      // bytes) until its last lease drops: load around it, transiently.
      const bool admit = it == entries_.end() && AdmissionOpen();
      if (admit && bytes <= capacity_bytes_ && EvictUntilFits(bytes)) {
        // Reserve the entry in "loading" state, transfer outside the lock.
        Entry entry;
        entry.column = column;
        entry.bytes = bytes;
        entry.ready = false;
        entry.ref_count = 1;
        entry.last_access = ++access_clock_;
        entry.access_count = 1;
        entries_[key] = std::move(entry);
        used_bytes_ += bytes;
        ++stats_.insertions;
      } else {
        // Transient: cannot be made resident. The bytes need a device heap
        // buffer for the operator's lifetime; allocate it before the
        // transfer, so a full heap aborts without moving a byte.
        lock.unlock();
        TraceSpan transient_span;
        if (TraceRecorder::enabled()) {
          transient_span.Begin(key, "cache");
          transient_span.AddArg("action", "transient");
          transient_span.AddArg("bytes", static_cast<int64_t>(bytes));
        }
        Access access;
        access.hit = false;
        access.resident = false;
        Result<DeviceAllocation> buffer =
            simulator_->device_heap(device_id_).Allocate(
                bytes, "transient input " + key, reservation);
        if (!buffer.ok()) {
          access.status = buffer.status();
          return access;
        }
        Status transfer_status =
            simulator_->bus(device_id_).Transfer(bytes, TransferDirection::kHostToDevice);
        if (!transfer_status.ok()) {
          // `buffer` goes out of scope: the heap gets its bytes back.
          std::lock_guard<std::mutex> stats_lock(mutex_);
          ++stats_.load_failures;
          access.status = std::move(transfer_status);
          return access;
        }
        access.heap_buffer = std::move(buffer).value();
        return access;
      }
    }
    // Perform the modeled PCIe transfer without holding the cache latch.
    TraceSpan admit_span;
    if (TraceRecorder::enabled()) {
      admit_span.Begin(key, "cache");
      admit_span.AddArg("action", "admit");
      admit_span.AddArg("bytes", static_cast<int64_t>(bytes));
    }
    Status transfer_status =
        simulator_->bus(device_id_).Transfer(bytes, TransferDirection::kHostToDevice);
    if (!transfer_status.ok()) {
      AbandonLoad(key);
      Access access;
      access.hit = false;
      access.resident = false;
      access.status = std::move(transfer_status);
      return access;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      HETDB_CHECK(it != entries_.end());
      it->second.ready = true;
    }
    load_cv_.notify_all();
    Access access;
    access.hit = false;
    access.resident = true;
    access.lease = Lease(this, key);
    return access;
  }
}

void DataCache::AbandonLoad(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.load_failures;
    auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.ready) {
      used_bytes_ -= it->second.bytes;
      entries_.erase(it);
    }
  }
  load_cv_.notify_all();
}

bool DataCache::EvictUntilFits(size_t bytes) {
  if (bytes > capacity_bytes_) return false;
  while (used_bytes_ + bytes > capacity_bytes_) {
    auto victim = PickVictim();
    if (victim == entries_.end()) return false;
    RemoveEntry(victim);
    ++stats_.evictions;
  }
  return true;
}

std::unordered_map<std::string, DataCache::Entry>::iterator
DataCache::PickVictim() {
  auto best = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const Entry& entry = it->second;
    if (!Droppable(entry)) continue;
    if (best == entries_.end()) {
      best = it;
      continue;
    }
    const Entry& best_entry = best->second;
    const bool worse = policy_ == EvictionPolicy::kLru
                           ? entry.last_access < best_entry.last_access
                           : entry.access_count < best_entry.access_count;
    if (worse) best = it;
  }
  return best;
}

void DataCache::RemoveEntry(
    std::unordered_map<std::string, Entry>::iterator it) {
  if (TraceRecorder::enabled()) {
    RecordInstantEvent(it->first, "cache", /*query_id=*/0,
                       {{"action", "evict"},
                        {"bytes", std::to_string(it->second.bytes)}});
  }
  used_bytes_ -= it->second.bytes;
  entries_.erase(it);
}

void DataCache::RunPlacementJob(
    const std::vector<std::pair<std::string, ColumnPtr>>& columns,
    const std::vector<std::string>& first) {
  TraceSpan job_span;
  if (TraceRecorder::enabled()) {
    job_span.Begin("placement job", "cache");
    job_span.AddArg("candidates", static_cast<int64_t>(columns.size()));
  }
  // Algorithm 1: K = columns sorted by access statistics descending (LFU:
  // frequency; LRU: recency — compared in Appendix E); fill the budget
  // greedily; evict cached \ selected; cache selected \ cached.
  std::vector<std::pair<std::string, ColumnPtr>> sorted = columns;
  if (policy_ == EvictionPolicy::kLfu) {
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.second->access_count() >
                              b.second->access_count();
                     });
  } else {
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.second->last_access_seq() >
                              b.second->last_access_seq();
                     });
  }
  std::stable_partition(sorted.begin(), sorted.end(), [&](const auto& kv) {
    return std::find(first.begin(), first.end(), kv.first) != first.end();
  });

  std::vector<std::pair<std::string, ColumnPtr>> selected;
  size_t budget_used = 0;
  for (const auto& [key, column] : sorted) {
    if (column->access_count() == 0) continue;  // never used by any query
    const size_t bytes = EntryBytes(*column);
    if (budget_used + bytes > capacity_bytes_) continue;
    budget_used += bytes;
    selected.emplace_back(key, column);
  }

  std::vector<std::pair<std::string, ColumnPtr>> to_load;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.placement_job_runs;
    // Evict everything no longer selected (deferred while leased: running
    // queries continue, reference counters clean up afterwards).
    for (auto it = entries_.begin(); it != entries_.end();) {
      const bool keep = std::any_of(
          selected.begin(), selected.end(),
          [&](const auto& kv) { return kv.first == it->first; });
      if (keep) {
        it->second.pinned = true;
        ++it;
        continue;
      }
      if (it->second.ref_count > 0 || !it->second.ready) {
        it->second.pending_evict = true;
        ++it;
      } else {
        it = entries_.erase(it);
        // Recompute used bytes below; simpler than tracking here.
      }
    }
    // Recompute used bytes after bulk erase.
    used_bytes_ = 0;
    for (const auto& [key, entry] : entries_) used_bytes_ += entry.bytes;

    for (const auto& [key, column] : selected) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        // Still present (possibly marked for eviction by an earlier job run
        // while leased): keep it and clear the eviction mark.
        it->second.pending_evict = false;
        it->second.pinned = true;
        continue;
      }
      const size_t bytes = EntryBytes(*column);
      if (used_bytes_ + bytes > capacity_bytes_) continue;  // leased leftovers
      Entry entry;
      entry.column = column;
      entry.bytes = bytes;
      entry.ready = false;
      entry.pinned = true;
      entry.access_count = column->access_count();
      entry.last_access = ++access_clock_;
      entries_[key] = std::move(entry);
      used_bytes_ += bytes;
      ++stats_.insertions;
      to_load.emplace_back(key, column);
    }
  }
  if (job_span.active()) {
    job_span.AddArg("selected", static_cast<int64_t>(selected.size()));
    job_span.AddArg("loaded", static_cast<int64_t>(to_load.size()));
  }
  // Transfers outside the latch; queries seeing "loading" entries wait on
  // the per-entry latch, everything else proceeds.
  for (const auto& [key, column] : to_load) {
    Status transfer_status = simulator_->bus(device_id_).Transfer(
        EntryBytes(*column), TransferDirection::kHostToDevice);
    if (!transfer_status.ok()) {
      // The column stays host-only this round; the next job run retries.
      AbandonLoad(key);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) it->second.ready = true;
    }
    load_cv_.notify_all();
  }
}

Status DataCache::Pin(const ColumnPtr& column, const std::string& key) {
  const size_t bytes = EntryBytes(*column);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.pinned = true;
      it->second.pending_evict = false;
      return Status::OK();
    }
    if (!EvictUntilFits(bytes)) {
      return Status::ResourceExhausted("cannot pin " + key + ": " +
                                       std::to_string(bytes) +
                                       " bytes do not fit in cache");
    }
    Entry entry;
    entry.column = column;
    entry.bytes = bytes;
    entry.ready = false;
    entry.pinned = true;
    entry.last_access = ++access_clock_;
    entries_[key] = std::move(entry);
    used_bytes_ += bytes;
    ++stats_.insertions;
  }
  Status transfer_status =
      simulator_->bus(device_id_).Transfer(bytes, TransferDirection::kHostToDevice);
  if (!transfer_status.ok()) {
    AbandonLoad(key);
    return transfer_status;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) it->second.ready = true;
  }
  load_cv_.notify_all();
  return Status::OK();
}

Status DataCache::AdmitMigrated(const ColumnPtr& column,
                                const std::string& key) {
  const size_t bytes = EntryBytes(*column);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.pinned = true;
      it->second.pending_evict = false;
      return Status::OK();
    }
    if (!EvictUntilFits(bytes)) {
      return Status::ResourceExhausted("cannot admit migrated " + key + ": " +
                                       std::to_string(bytes) +
                                       " bytes do not fit in cache");
    }
    Entry entry;
    entry.column = column;
    entry.bytes = bytes;
    entry.ready = true;  // bytes already on-device via the D2D path
    entry.pinned = true;
    entry.last_access = ++access_clock_;
    entries_[key] = std::move(entry);
    used_bytes_ += bytes;
    ++stats_.insertions;
  }
  load_cv_.notify_all();
  return Status::OK();
}

void DataCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.ref_count > 0 || !it->second.ready) {
      it->second.pending_evict = true;
      ++it;
    } else {
      it = entries_.erase(it);
    }
  }
  used_bytes_ = 0;
  for (const auto& [key, entry] : entries_) used_bytes_ += entry.bytes;
}

size_t DataCache::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

DataCacheStats DataCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void DataCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = DataCacheStats();
}

std::vector<std::pair<std::string, ColumnPtr>> DataCache::ResidentColumns()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, ColumnPtr>> resident;
  for (const auto& [key, entry] : entries_) {
    if (entry.ready && !entry.pending_evict) {
      resident.emplace_back(key, entry.column);
    }
  }
  std::sort(resident.begin(), resident.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return resident;
}

std::vector<std::string> DataCache::CachedKeys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  for (const auto& [key, entry] : entries_) {
    if (entry.ready && !entry.pending_evict) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace hetdb
