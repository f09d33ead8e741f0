#include "sim/cpu_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace hetdb {

CpuScheduler::CpuScheduler(int cores, double time_scale)
    : cores_(cores),
      time_scale_(time_scale),
      epoch_(std::chrono::steady_clock::now()) {
  HETDB_CHECK(cores > 0);
  HETDB_CHECK(time_scale > 0);
}

double CpuScheduler::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

double CpuScheduler::Run(double work) {
  Kernel kernel;
  std::unique_lock<std::mutex> lock(mutex_);
  Arrive(&kernel, work, NowMicros());
  while (!kernel.done()) {
    if (kernel.cores == 0) {
      kernel.wake.wait(lock, [&kernel] { return kernel.cores > 0; });
      continue;
    }
    const auto deadline =
        epoch_ + std::chrono::ceil<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::micro>(kernel.finish));
    if (!kernel.wake.wait_until(lock, deadline,
                                [&kernel] { return kernel.cores == 0; })) {
      Update(NowMicros());
    }
  }
  Depart(&kernel, NowMicros());
  return kernel.waited;
}

void CpuScheduler::Arrive(Kernel* kernel, double work, double now) {
  Advance(now);
  kernel->remaining = work;
  kernel->seq = next_seq_++;
  kernels_.push_back(kernel);
  Redivide(now);
}

void CpuScheduler::Update(double now) {
  Advance(now);
  Redivide(now);
}

void CpuScheduler::Depart(Kernel* kernel, double now) {
  Advance(now);
  kernels_.erase(std::find(kernels_.begin(), kernels_.end(), kernel));
  Redivide(now);
}

void CpuScheduler::Advance(double now) {
  if (now <= last_update_) return;
  const double elapsed = now - last_update_;
  last_update_ = now;
  for (Kernel* kernel : kernels_) {
    if (kernel->cores == 0) {
      kernel->waited += elapsed;
    } else {
      kernel->remaining = std::max(
          0.0, kernel->remaining - kernel->cores * elapsed / time_scale_);
    }
  }
}

void CpuScheduler::Redivide(double now) {
  const Kernel* shortest = nullptr;
  for (const Kernel* kernel : kernels_) {
    if (shortest == nullptr || kernel->remaining < shortest->remaining ||
        (kernel->remaining == shortest->remaining &&
         kernel->seq < shortest->seq)) {
      shortest = kernel;
    }
  }
  for (Kernel* kernel : kernels_) {
    const int cores = kernel == shortest ? cores_ : 0;
    kernel->finish = cores > 0 ? now + kernel->remaining * time_scale_ / cores
                               : std::numeric_limits<double>::infinity();
    if (kernel->cores != cores) {
      kernel->cores = cores;
      kernel->wake.notify_one();
    }
  }
}

}  // namespace hetdb
