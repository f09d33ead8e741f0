#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace hetdb {

namespace {

int DefaultCapacity() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One contiguous sub-range of the iteration space with an atomic morsel
/// cursor. Padded to a cache line so concurrent cursors don't false-share.
struct alignas(64) Shard {
  std::atomic<size_t> next{0};
  size_t end = 0;
};

/// One ParallelFor invocation, shared between the caller and its helpers.
struct MorselJob {
  const MorselFn* fn = nullptr;
  size_t morsel = 1;
  std::vector<Shard> shards;
  int workers = 1;  ///< total workers including the caller (worker 0)

  /// Helpers not yet claimed from the arena queue; guarded by the arena
  /// mutex. The caller revokes unclaimed helpers when it finishes early.
  int unclaimed = 0;

  /// Helpers currently running (claimed but not finished).
  std::atomic<int> inflight{0};
  std::mutex mu;
  std::condition_variable done_cv;
};

using MorselJobPtr = std::shared_ptr<MorselJob>;

/// Set while a thread is executing a morsel body; nested ParallelFor calls
/// degrade to serial so per-worker scratch indexed by `worker` stays private.
thread_local bool t_inside_morsel_worker = false;

/// Drains shard `worker`, then steals morsels from the other shards.
void RunMorselWorker(MorselJob& job, int worker) {
  t_inside_morsel_worker = true;
  const int shard_count = static_cast<int>(job.shards.size());
  for (int offset = 0; offset < shard_count; ++offset) {
    Shard& shard = job.shards[(worker + offset) % shard_count];
    while (true) {
      const size_t begin =
          shard.next.fetch_add(job.morsel, std::memory_order_relaxed);
      if (begin >= shard.end) break;
      (*job.fn)(begin, std::min(begin + job.morsel, shard.end), worker);
    }
  }
  t_inside_morsel_worker = false;
}

/// Marks one helper done and wakes the caller when it was the last.
void FinishHelper(const MorselJobPtr& job) {
  if (job->inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Taking the lock before notifying closes the race with a caller that
    // checked the predicate and is about to sleep.
    std::lock_guard<std::mutex> lock(job->mu);
    job->done_cv.notify_all();
  }
}

/// Fixed-size (after lazy growth) pool of helper threads serving morsel
/// jobs. Threads are created on demand up to a hard cap and parked on a
/// condition variable between jobs; the arena is shut down (threads joined)
/// at static destruction.
class TaskArena {
 public:
  static TaskArena& Global() {
    static TaskArena arena;
    return arena;
  }

  ~TaskArena() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Ensures at least `count` helper threads exist (capped).
  void EnsureWorkers(int count) {
    static constexpr int kMaxThreads = 64;
    count = std::min(count, kMaxThreads);
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(threads_.size()) < count) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Offers `job` to `helpers` arena threads.
  void Submit(const MorselJobPtr& job, int helpers) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->unclaimed = helpers;
      queue_.push_back(job);
    }
    cv_.notify_all();
  }

  /// Revokes helper slots nobody claimed yet, so the caller never waits on
  /// arena threads that are busy with other jobs.
  void Revoke(const MorselJobPtr& job) {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->unclaimed > 0) {
      job->unclaimed = 0;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == job) {
          queue_.erase(it);
          break;
        }
      }
    }
  }

 private:
  void WorkerLoop() {
    while (true) {
      MorselJobPtr job;
      int worker = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) return;  // shutdown with no pending work
        job = queue_.front();
        worker = job->workers - job->unclaimed;
        if (--job->unclaimed == 0) queue_.pop_front();
        // Claiming (and the matching revocation) happens under the arena
        // mutex, so inflight can only rise while the caller still considers
        // the job open.
        job->inflight.fetch_add(1, std::memory_order_acq_rel);
      }
      RunMorselWorker(*job, worker);
      FinishHelper(job);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<MorselJobPtr> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

void RunSerial(size_t total, size_t morsel_rows, const MorselFn& fn) {
  for (size_t begin = 0; begin < total; begin += morsel_rows) {
    fn(begin, std::min(begin + morsel_rows, total), 0);
  }
}

}  // namespace

DopBudget::DopBudget(int capacity)
    : capacity_(capacity), available_(capacity) {
  HETDB_CHECK(capacity >= 0);
}

DopBudget& DopBudget::Global() {
  static DopBudget budget(DefaultCapacity());
  return budget;
}

void DopBudget::SetCapacity(int capacity) {
  HETDB_CHECK(capacity >= 0);
  const int old = capacity_.exchange(capacity, std::memory_order_relaxed);
  available_.fetch_add(capacity - old, std::memory_order_relaxed);
}

int DopBudget::TryAcquire(int want) {
  if (want <= 0) return 0;
  int avail = available_.load(std::memory_order_relaxed);
  while (avail > 0) {
    const int take = std::min(want, avail);
    if (available_.compare_exchange_weak(avail, avail - take,
                                         std::memory_order_acq_rel)) {
      return take;
    }
  }
  return 0;
}

void DopBudget::Release(int count) {
  if (count > 0) available_.fetch_add(count, std::memory_order_acq_rel);
}

namespace {
std::atomic<size_t> g_morsel_rows{16 * 1024};

thread_local int t_dop_cap = 0;  // 0 = uncapped
}  // namespace

size_t MorselRows() { return g_morsel_rows.load(std::memory_order_relaxed); }

void SetMorselRows(size_t rows) {
  g_morsel_rows.store(std::max<size_t>(rows, 1), std::memory_order_relaxed);
}

ScopedDopCap::ScopedDopCap(int cap) : previous_(t_dop_cap) {
  if (cap > 0 && (previous_ == 0 || cap < previous_)) t_dop_cap = cap;
}

ScopedDopCap::~ScopedDopCap() { t_dop_cap = previous_; }

int ScopedDopCap::current() { return t_dop_cap; }

int MaxParallelWorkers(size_t total, size_t morsel_rows) {
  if (total == 0) return 1;
  if (morsel_rows == 0) morsel_rows = 1;
  int dop = DopBudget::Global().capacity();
  if (t_dop_cap > 0 && t_dop_cap < dop) dop = t_dop_cap;
  const size_t morsels = (total + morsel_rows - 1) / morsel_rows;
  return static_cast<int>(std::min<size_t>(std::max(dop, 1), morsels));
}

int ParallelFor(size_t total, size_t morsel_rows, const MorselFn& fn) {
  if (total == 0) return 1;
  if (morsel_rows == 0) morsel_rows = 1;

  const size_t morsels = (total + morsel_rows - 1) / morsel_rows;
  const int want = MaxParallelWorkers(total, morsel_rows);
  if (want <= 1 || t_inside_morsel_worker) {
    const bool was_inside = t_inside_morsel_worker;
    t_inside_morsel_worker = true;
    RunSerial(total, morsel_rows, fn);
    t_inside_morsel_worker = was_inside;
    return 1;
  }

  const int extra = DopBudget::Global().TryAcquire(want - 1);
  if (extra == 0) {
    t_inside_morsel_worker = true;
    RunSerial(total, morsel_rows, fn);
    t_inside_morsel_worker = false;
    return 1;
  }
  const int workers = 1 + extra;

  auto job = std::make_shared<MorselJob>();
  job->fn = &fn;
  job->morsel = morsel_rows;
  job->workers = workers;
  job->shards = std::vector<Shard>(workers);
  // Contiguous shards in whole morsels; earlier shards take the remainder.
  const size_t base = morsels / workers;
  const size_t rem = morsels % workers;
  size_t begin = 0;
  for (int w = 0; w < workers; ++w) {
    const size_t shard_morsels = base + (static_cast<size_t>(w) < rem ? 1 : 0);
    const size_t end = std::min(total, begin + shard_morsels * morsel_rows);
    job->shards[w].next.store(begin, std::memory_order_relaxed);
    job->shards[w].end = end;
    begin = end;
  }

  TaskArena& arena = TaskArena::Global();
  arena.EnsureWorkers(extra);
  arena.Submit(job, extra);

  RunMorselWorker(*job, 0);

  // Drop helper slots nobody picked up, then wait for the ones that did.
  arena.Revoke(job);
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock, [&job] {
      return job->inflight.load(std::memory_order_acquire) == 0;
    });
  }
  DopBudget::Global().Release(extra);
  return workers;
}

}  // namespace hetdb
