#ifndef HETDB_COMMON_PARALLEL_H_
#define HETDB_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <functional>

namespace hetdb {

/// Process-global degree-of-parallelism token budget.
///
/// Both sources of host parallelism — the ChoppingExecutor's per-processor
/// worker pools (inter-operator) and the morsel scheduler's kernel helpers
/// (intra-operator) — draw from this one pool so their sum never
/// oversubscribes the machine: an idle system gives one big kernel every
/// core, while a loaded chopping pool starves kernels down to their calling
/// thread. Acquisition never blocks; a caller that gets fewer tokens than
/// requested simply runs with less parallelism (the calling thread always
/// participates, so forward progress never depends on tokens).
class DopBudget {
 public:
  /// Capacity defaults to std::thread::hardware_concurrency().
  static DopBudget& Global();

  explicit DopBudget(int capacity);

  /// Resizes the pool. Outstanding tokens are honoured: shrinking below the
  /// number of tokens currently held lets the pool drain naturally.
  void SetCapacity(int capacity);
  int capacity() const { return capacity_.load(std::memory_order_relaxed); }
  int available() const { return available_.load(std::memory_order_relaxed); }

  /// Takes up to `want` tokens without blocking; returns how many were taken.
  int TryAcquire(int want);
  void Release(int count);

  /// RAII holder for zero-or-one token (used by executor worker threads
  /// while they run an operator).
  class Token {
   public:
    Token() = default;
    explicit Token(DopBudget* budget)
        : budget_(budget), held_(budget->TryAcquire(1) == 1) {}
    ~Token() { Reset(); }
    Token(Token&& other) noexcept
        : budget_(other.budget_), held_(other.held_) {
      other.held_ = false;
    }
    Token& operator=(Token&& other) noexcept {
      if (this != &other) {
        Reset();
        budget_ = other.budget_;
        held_ = other.held_;
        other.held_ = false;
      }
      return *this;
    }
    Token(const Token&) = delete;
    Token& operator=(const Token&) = delete;
    bool held() const { return held_; }

   private:
    void Reset() {
      if (held_) budget_->Release(1);
      held_ = false;
    }
    DopBudget* budget_ = nullptr;
    bool held_ = false;
  };

 private:
  std::atomic<int> capacity_;
  std::atomic<int> available_;
};

/// Rows per morsel the kernels split their inputs into. The default 16K keeps
/// a morsel's touched columns in L1/L2 while scheduling amortizes to
/// microseconds of work; only tests shrink it (values below 1 become 1).
size_t MorselRows();
void SetMorselRows(size_t rows);

/// Body of a morsel loop: processes rows [begin, end). `worker` is a dense
/// index in [0, dop) unique to this invocation — kernels use it to address
/// per-worker scratch buffers. Worker 0 is always the calling thread.
using MorselFn = std::function<void(size_t begin, size_t end, int worker)>;

/// Runs `fn` over [0, total) in morsels of `morsel_rows` rows.
///
/// The range is split into one contiguous shard per worker; each worker
/// drains its own shard morsel-by-morsel (atomic cursor) and then steals
/// morsels from the other shards' cursors — the classic morsel-driven
/// work-stealing loop, keeping a worker's accesses contiguous until load
/// imbalance actually materializes. Helper threads come from a lazily grown
/// process-global arena and are admitted only up to the tokens obtainable
/// from DopBudget::Global(); the calling thread always participates, so the
/// call completes even when the budget is exhausted.
///
/// The workers for this call are capped by the budget's capacity and the
/// thread's ScopedDopCap. Returns the number of workers that participated
/// (>= 1).
///
/// Every morsel is processed exactly once, and `fn` invocations for
/// different morsels may run concurrently — the caller must ensure disjoint
/// writes. All writes made by `fn` are visible to the caller on return.
/// Invocations are always morsel-aligned: `begin` is a multiple of
/// `morsel_rows` and `end - begin <= morsel_rows`, so `begin / morsel_rows`
/// is a stable morsel index kernels can key per-morsel state on.
int ParallelFor(size_t total, size_t morsel_rows, const MorselFn& fn);

/// Upper bound on the worker count a ParallelFor over `total` rows could use
/// (same clamping as ParallelFor, ignoring current token availability).
/// Kernels size per-worker scratch with this before starting the loop.
int MaxParallelWorkers(size_t total, size_t morsel_rows);

/// Thread-local DoP ceiling, applied on top of the budget's capacity for
/// every ParallelFor issued by this thread while the scope is open. Lets a
/// supervisor (the brownout controller's L1 level) throttle one query's
/// intra-operator parallelism without touching other queries.
/// Nests: the innermost scope's cap wins only if it is tighter.
class ScopedDopCap {
 public:
  explicit ScopedDopCap(int cap);
  ~ScopedDopCap();
  ScopedDopCap(const ScopedDopCap&) = delete;
  ScopedDopCap& operator=(const ScopedDopCap&) = delete;

  /// The cap active on this thread; 0 means uncapped.
  static int current();

 private:
  int previous_;
};

}  // namespace hetdb

#endif  // HETDB_COMMON_PARALLEL_H_
