#ifndef HETDB_SIM_SIM_CLOCK_H_
#define HETDB_SIM_SIM_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace hetdb {

/// Realizes modeled durations as wall-clock time.
///
/// The co-processor simulator computes how long an operation *would* take on
/// the modeled hardware (device kernel, PCIe transfer) and asks the clock to
/// make that duration pass. In simulation mode the calling thread sleeps;
/// each device's kernel lock and each PCIe lane serialize their own sleeps,
/// so sleeps on different units model concurrent hardware, and wall-clock
/// measurements of the engine equal modeled time. A CPU kernel's time is
/// only counted here (`Count`): the CPU scheduler (`CpuScheduler`) realizes
/// it on the shared cores. With simulation disabled (unit tests) durations
/// are only accumulated.
class SimClock {
 public:
  SimClock(bool simulate, double time_scale)
      : simulate_(simulate), time_scale_(time_scale) {}

  /// Lets `micros` microseconds of modeled time pass (scaled by the
  /// configured time_scale). Thread-safe.
  void Charge(double micros) {
    if (micros <= 0) return;
    Count(micros);
    if (!simulate_) return;
    const double scaled = micros * time_scale_;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(scaled));
  }

  /// Adds `micros` of modeled time to the total without letting it pass,
  /// for time that another component realizes. Thread-safe.
  void Count(double micros) {
    total_charged_micros_.fetch_add(static_cast<int64_t>(micros),
                                    std::memory_order_relaxed);
  }

  bool simulate() const { return simulate_; }
  double time_scale() const { return time_scale_; }

  /// Sum of all modeled durations charged so far (unscaled), across threads.
  int64_t total_charged_micros() const {
    return total_charged_micros_.load(std::memory_order_relaxed);
  }

 private:
  bool simulate_;
  double time_scale_;
  std::atomic<int64_t> total_charged_micros_{0};
};

}  // namespace hetdb

#endif  // HETDB_SIM_SIM_CLOCK_H_
