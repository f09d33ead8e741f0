#ifndef HETDB_PLACEMENT_STRATEGY_H_
#define HETDB_PLACEMENT_STRATEGY_H_

#include <string>

namespace hetdb {

/// The placement strategies compared in the paper's evaluation (Section 6.2):
///
///  * kCpuOnly       — baseline, never touches the device;
///  * kGpuOnly       — "GPU Preferred": every operator compile-time-placed on
///                     the device, CPU only after aborts (state of the art);
///  * kCriticalPath  — CoGaDB's default compile-time iterative-refinement
///                     cost optimizer (Appendix D);
///  * kDataDriven    — compile-time data-driven placement (Section 3);
///  * kRunTime       — run-time placement without concurrency limiting
///                     (Section 4);
///  * kChopping      — query chopping with operator-driven placement
///                     (Section 5.2);
///  * kDataDrivenChopping — the paper's combined contribution (Section 5.4).
enum class Strategy {
  kCpuOnly,
  kGpuOnly,
  kCriticalPath,
  kDataDriven,
  kRunTime,
  kChopping,
  kDataDrivenChopping,
};

const char* StrategyToString(Strategy strategy);

/// All strategies, in the paper's usual presentation order.
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kCpuOnly,      Strategy::kGpuOnly,
    Strategy::kCriticalPath, Strategy::kDataDriven,
    Strategy::kRunTime,      Strategy::kChopping,
    Strategy::kDataDrivenChopping,
};

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_STRATEGY_H_
