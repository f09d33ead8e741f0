#ifndef HETDB_COMMON_HYSTERESIS_H_
#define HETDB_COMMON_HYSTERESIS_H_

namespace hetdb {

/// The degradation ladder's one damping rule (DESIGN.md §13): a level that
/// follows each window's target level only once a streak of windows agrees,
/// so one noisy window cannot flip it back and forth.
///
/// The level rises after `escalate` consecutive windows whose target is
/// above it: straight to the target, or by one level when `one_step_up`. It
/// falls one level after `calm` consecutive windows whose target is below
/// it. A window at the level clears both streaks, and so does every change
/// of level. Not thread-safe: the owner locks it.
class Hysteresis {
 public:
  Hysteresis(int escalate, int calm, bool one_step_up)
      : escalate_(escalate), calm_(calm), one_step_up_(one_step_up) {}

  int level() const { return level_; }

  /// Feeds one window's target level. Returns true when the level changed.
  bool Observe(int target) {
    if (target > level_) {
      calm_streak_ = 0;
      if (++escalate_streak_ >= escalate_) {
        return Set(one_step_up_ ? level_ + 1 : target);
      }
    } else if (target < level_) {
      escalate_streak_ = 0;
      if (++calm_streak_ >= calm_) return Set(level_ - 1);
    } else {
      escalate_streak_ = 0;
      calm_streak_ = 0;
    }
    return false;
  }

  /// Moves to `level` and clears both streaks. Setting the current level
  /// changes nothing: the streaks run on. Returns true when the level
  /// changed.
  bool Set(int level) {
    if (level == level_) return false;
    level_ = level;
    escalate_streak_ = 0;
    calm_streak_ = 0;
    return true;
  }

  /// Back to level 0 with no streak.
  void Reset() {
    level_ = 0;
    escalate_streak_ = 0;
    calm_streak_ = 0;
  }

 private:
  const int escalate_;
  const int calm_;
  const bool one_step_up_;
  int level_ = 0;
  int escalate_streak_ = 0;
  int calm_streak_ = 0;
};

}  // namespace hetdb

#endif  // HETDB_COMMON_HYSTERESIS_H_
