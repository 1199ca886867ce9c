// Tests of the benchmark's own measurement arithmetic.
//
//   cmake --build .bench_build/jobbench --target jobbench_test
//   .bench_build/jobbench/jobbench_test
#include "measure.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace jobbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 90.0), 90.0);
  EXPECT_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(OneTo(10), 90.0), 9.0);
  EXPECT_EQ(Percentile({7.0}, 90.0), 7.0);
  EXPECT_EQ(Percentile({}, 90.0), 0.0);
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90.0), 9u);
  // p90 needs 100 samples; below that the tail falls back to p75, p50.
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(99), 75.0);
  EXPECT_EQ(HighestReportablePercentile(40), 75.0);
  EXPECT_EQ(HighestReportablePercentile(39), 50.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(200), 95.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SpanLog, SelfTimeSubtractsChildren) {
  SpanLog log;
  const int root = log.Begin("job", 1, -1, 0.0);
  const int a = log.Begin("a", 1, root, 10.0);
  log.End(a, 30.0);
  const int b = log.Begin("b", 1, root, 40.0);
  const int leaf = log.Begin("leaf", 1, b, 45.0);
  log.End(leaf, 50.0);
  log.End(b, 70.0);
  log.End(root, 100.0);
  const std::vector<double> self = log.SelfTimesMs();
  EXPECT_DOUBLE_EQ(self[root], 100.0 - 20.0 - 30.0);
  EXPECT_DOUBLE_EQ(self[a], 20.0);
  EXPECT_DOUBLE_EQ(self[b], 30.0 - 5.0);
  EXPECT_DOUBLE_EQ(self[leaf], 5.0);
  EXPECT_DOUBLE_EQ(log.TotalMs("job"), 100.0);
  EXPECT_DOUBLE_EQ(log.SelfTotalMs("b"), 25.0);
  EXPECT_EQ(log.Count("a"), 1u);
  EXPECT_EQ(log.Count("missing"), 0u);
}

TEST(SpanLog, OverlappingAndOverhangingChildrenCountOnce) {
  SpanLog log;
  const int root = log.Begin("job", 7, -1, 0.0);
  // Two concurrent children overlapping on [20, 30) and one running past
  // the parent's end: covered = [10, 40) plus [90, 100).
  const int c1 = log.Begin("c", 7, root, 10.0);
  const int c2 = log.Begin("c", 7, root, 20.0);
  log.End(c1, 30.0);
  log.End(c2, 40.0);
  const int c3 = log.Begin("c", 7, root, 90.0);
  log.End(c3, 120.0);
  log.End(root, 100.0);
  EXPECT_DOUBLE_EQ(log.SelfTimesMs()[root], 100.0 - 30.0 - 10.0);
  // Spans of other jobs are counted by name too.
  EXPECT_DOUBLE_EQ(log.TotalMs("c"), 20.0 + 20.0 + 30.0);
}

TEST(Schedule, SameSeedSameInstants) {
  const std::vector<double> a = ArrivalScheduleMs(42, 4.0, 25.0);
  const std::vector<double> b = ArrivalScheduleMs(42, 4.0, 25.0);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 25000.0);
  EXPECT_NE(a, ArrivalScheduleMs(43, 4.0, 25.0));
  // The count is the expected count, whatever the seed.
  EXPECT_EQ(ArrivalScheduleMs(7, 3.3, 10.0).size(), 33u);
  EXPECT_TRUE(ArrivalScheduleMs(7, 0.0, 10.0).empty());
}

TEST(Schedule, RoughlyUniformOverTheWindow) {
  const std::vector<double> due = ArrivalScheduleMs(5, 100.0, 100.0);
  size_t first_half = 0;
  for (double t : due) first_half += t < 50000.0;
  EXPECT_NEAR(static_cast<double>(first_half) / due.size(), 0.5, 0.05);
}

TEST(Lateness, MeasuredFromDueTime) {
  LatenessLog late;
  for (int i = 0; i < 9; ++i) late.Record(100.0 * i, 100.0 * i + 1.0);
  late.Record(900.0, 950.0);  // one stalled send
  EXPECT_EQ(late.size(), 10u);
  EXPECT_DOUBLE_EQ(late.P90Ms(), 1.0);
  late.Record(1000.0, 1100.0);
  EXPECT_DOUBLE_EQ(late.P90Ms(), 50.0);
  // A send ahead of schedule is not negative lateness.
  LatenessLog early;
  early.Record(10.0, 5.0);
  EXPECT_DOUBLE_EQ(early.P90Ms(), 0.0);
}

TEST(JobTally, RejectedSubmitFailsAndMissesTheLimit) {
  JobTally tally(1000.0);
  tally.Done(200.0);
  tally.Done(1500.0);  // done, but late
  tally.Failed();      // a rejected submit
  tally.Done(999.0);
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_EQ(tally.done(), 3u);
  EXPECT_DOUBLE_EQ(tally.FailShare(), 0.25);
  EXPECT_DOUBLE_EQ(tally.DoneShare(), 0.75);
  EXPECT_DOUBLE_EQ(tally.SloShare(), 0.5);
  // Latency samples come from done jobs only.
  EXPECT_EQ(tally.latencies_ms().size(), 3u);
}

TEST(JobTally, EmptyTallyIsZero) {
  JobTally tally(1000.0);
  EXPECT_EQ(tally.FailShare(), 0.0);
  EXPECT_EQ(tally.SloShare(), 0.0);
  EXPECT_EQ(tally.DoneShare(), 0.0);
}

}  // namespace
}  // namespace jobbench
