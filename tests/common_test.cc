#include <gtest/gtest.h>

#include <set>

#include "common/config.h"
#include "common/hysteresis.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace hetdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::ResourceExhausted("out of device memory");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "ResourceExhausted: out of device memory");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kResourceExhausted,
        StatusCode::kInternal, StatusCode::kNotImplemented,
        StatusCode::kAborted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(std::move(result).ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  HETDB_ASSIGN_OR_RETURN(int parsed, ParsePositive(x));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleIt(21).value(), 42);
  EXPECT_EQ(DoubleIt(-1).status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // mean of U[0,1)
}

TEST(ConfigTest, HeapIsMemoryMinusCache) {
  SystemConfig config;
  config.device_memory_bytes = 100;
  config.device_cache_bytes = 30;
  EXPECT_EQ(config.device_heap_bytes(), 70u);
  config.device_cache_bytes = 200;  // degenerate: cache exceeds memory
  EXPECT_EQ(config.device_heap_bytes(), 0u);
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch watch;
  const int64_t t1 = watch.ElapsedMicros();
  const int64_t t2 = watch.ElapsedMicros();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0);
}

TEST(HysteresisTest, RisesToTheTargetOrOneLevelAfterAnEscalateStreak) {
  Hysteresis straight(/*escalate=*/2, /*calm=*/3, /*one_step_up=*/false);
  EXPECT_FALSE(straight.Observe(2));
  EXPECT_TRUE(straight.Observe(2));  // second window above: to the target
  EXPECT_EQ(straight.level(), 2);

  Hysteresis stepwise(/*escalate=*/2, /*calm=*/3, /*one_step_up=*/true);
  EXPECT_FALSE(stepwise.Observe(3));
  EXPECT_TRUE(stepwise.Observe(3));
  EXPECT_EQ(stepwise.level(), 1);  // one level at a time
  EXPECT_FALSE(stepwise.Observe(3));  // the change cleared the streak
  EXPECT_TRUE(stepwise.Observe(3));
  EXPECT_EQ(stepwise.level(), 2);
}

TEST(HysteresisTest, AWindowAtTheLevelClearsBothStreaks) {
  Hysteresis damping(/*escalate=*/2, /*calm=*/2, /*one_step_up=*/false);
  damping.Observe(1);
  damping.Observe(1);
  ASSERT_EQ(damping.level(), 1);
  EXPECT_FALSE(damping.Observe(2));  // escalate streak 1
  EXPECT_FALSE(damping.Observe(1));  // at the level: cleared
  EXPECT_FALSE(damping.Observe(2));  // escalate streak 1 again
  EXPECT_EQ(damping.level(), 1);
  EXPECT_FALSE(damping.Observe(0));  // calm streak 1
  EXPECT_FALSE(damping.Observe(1));  // cleared
  EXPECT_FALSE(damping.Observe(0));
  EXPECT_EQ(damping.level(), 1);
  // A window on the other side breaks a streak too.
  EXPECT_FALSE(damping.Observe(2));
  EXPECT_FALSE(damping.Observe(0));
  EXPECT_FALSE(damping.Observe(2));
  EXPECT_EQ(damping.level(), 1);
}

TEST(HysteresisTest, FallsOneLevelPerCalmStreak) {
  Hysteresis damping(/*escalate=*/1, /*calm=*/3, /*one_step_up=*/false);
  EXPECT_TRUE(damping.Observe(3));
  for (int level = 3; level > 0; --level) {
    EXPECT_FALSE(damping.Observe(0));
    EXPECT_FALSE(damping.Observe(0));
    EXPECT_TRUE(damping.Observe(0));
    EXPECT_EQ(damping.level(), level - 1);
  }
  EXPECT_FALSE(damping.Observe(0));
  EXPECT_EQ(damping.level(), 0);
}

TEST(HysteresisTest, SetToTheCurrentLevelKeepsTheStreaks) {
  Hysteresis damping(/*escalate=*/2, /*calm=*/2, /*one_step_up=*/true);
  EXPECT_FALSE(damping.Observe(1));  // escalate streak 1
  EXPECT_FALSE(damping.Set(0));      // no change: the streak runs on
  EXPECT_TRUE(damping.Observe(1));
  EXPECT_EQ(damping.level(), 1);

  EXPECT_FALSE(damping.Observe(0));  // calm streak 1
  EXPECT_TRUE(damping.Set(2));       // a change clears it
  EXPECT_FALSE(damping.Observe(1));
  EXPECT_TRUE(damping.Observe(1));
  EXPECT_EQ(damping.level(), 1);

  damping.Observe(3);  // escalate streak 1
  damping.Reset();
  EXPECT_EQ(damping.level(), 0);
  EXPECT_FALSE(damping.Observe(3));  // Reset cleared the streak
}

}  // namespace
}  // namespace hetdb
