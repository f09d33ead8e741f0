#ifndef HETDB_SIM_CPU_SCHEDULER_H_
#define HETDB_SIM_CPU_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace hetdb {

/// The simulated host CPU's cores, served shortest remaining work first.
///
/// Each CPU kernel arrives with its modeled single-core work in micros. All
/// cores go to the kernel with the least remaining work, ties in arrival
/// order, so an idle machine gives one kernel every core and a short kernel
/// preempts a long one instead of waiting out its run, the way a
/// morsel-driven runtime hands cores to new work at morsel boundaries. The
/// machine is work-conserving: n kernels that arrive together all finish by
/// their summed work / cores. Among work-conserving orders, shortest
/// remaining work first minimizes the mean response time.
///
/// The bookkeeping (`Arrive`, `Update`, `Depart`) takes an explicit wall time
/// `now` in micros and is not synchronized: `Run` calls it under the
/// scheduler's lock, and tests drive it from one thread without sleeping.
class CpuScheduler {
 public:
  /// Remaining work at or below this many modeled micros counts as done, so
  /// that rounding cannot keep a thread waking at its deadline.
  static constexpr double kDoneMicros = 1.0;

  /// One kernel in the scheduler, owned by the caller for its whole stay.
  struct Kernel {
    double remaining = 0;  ///< modeled single-core micros of work left
    uint64_t seq = 0;      ///< arrival order, breaks ties
    int cores = 0;         ///< cores held now: all of them or none
    /// Projected finish (wall micros); infinite while holding no core.
    double finish = std::numeric_limits<double>::infinity();
    double waited = 0;  ///< wall micros spent holding no core
    std::condition_variable wake;  ///< notified when `cores` changes

    bool done() const { return remaining <= kDoneMicros; }
  };

  CpuScheduler(int cores, double time_scale);

  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;

  /// Runs `work` modeled single-core micros to completion on the calling
  /// thread: blocks until the kernel's share of the cores has done it.
  /// Returns the wall micros it spent holding no core.
  double Run(double work);

  /// `kernel` arrives at `now` with `work` modeled micros.
  void Arrive(Kernel* kernel, double work, double now);
  /// Advances every kernel's remaining work to `now`, gives the cores to the
  /// shortest kernel, recomputes the deadlines and wakes each kernel whose
  /// share changed.
  void Update(double now);
  /// `kernel` leaves at `now`; its cores go to the next kernel.
  void Depart(Kernel* kernel, double now);

 private:
  double NowMicros() const;
  /// Takes the wall time since the last update off the running kernel's
  /// remaining work (cores x elapsed / time scale) and adds it to the
  /// waiting kernels' `waited`.
  void Advance(double now);
  void Redivide(double now);

  const int cores_;
  const double time_scale_;
  const std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;  // guards the members below inside `Run`
  std::vector<Kernel*> kernels_;
  uint64_t next_seq_ = 0;
  double last_update_ = 0;
};

}  // namespace hetdb

#endif  // HETDB_SIM_CPU_SCHEDULER_H_
