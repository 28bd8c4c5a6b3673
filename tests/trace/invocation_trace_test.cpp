#include "trace/invocation_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace defuse::trace {
namespace {

constexpr FunctionId kF0{0};
constexpr FunctionId kF1{1};

TEST(InvocationTrace, EmptyTrace) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Finalize();
  EXPECT_TRUE(trace.series(kF0).empty());
  EXPECT_EQ(trace.TotalInvocations(kF0, TimeRange{0, 100}), 0u);
}

TEST(InvocationTrace, AddAccumulatesSameMinute) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 3, 2);
  trace.Add(kF0, 3, 5);
  trace.Finalize();
  ASSERT_EQ(trace.series(kF0).size(), 1u);
  EXPECT_EQ(trace.series(kF0)[0], (InvocationEvent{3, 7}));
}

TEST(InvocationTrace, ZeroCountIsIgnored) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 3, 0);
  trace.Finalize();
  EXPECT_TRUE(trace.series(kF0).empty());
}

TEST(InvocationTrace, OutOfOrderEventsAreSortedAndCoalesced) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 2);
  trace.Add(kF0, 5, 3);
  trace.Add(kF0, 2);
  trace.Finalize();
  const auto s = trace.series(kF0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], (InvocationEvent{2, 2}));
  EXPECT_EQ(s[1], (InvocationEvent{5, 4}));
}

TEST(InvocationTrace, FinalizeIsIdempotent) {
  InvocationTrace trace{1, TimeRange{0, 10}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 2);
  trace.Finalize();
  trace.Finalize();
  EXPECT_EQ(trace.series(kF0).size(), 2u);
}

TEST(InvocationTrace, ShrinkToFitKeepsEverySeries) {
  InvocationTrace trace{2, TimeRange{0, 1000}};
  for (Minute t = 0; t < 1000; t += 3) trace.Add(kF0, t, 2);
  trace.Add(FunctionId{1}, 7);
  trace.Finalize();
  const std::vector<InvocationEvent> before(trace.series(kF0).begin(),
                                            trace.series(kF0).end());
  trace.ShrinkToFit();
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         trace.series(kF0).begin(), trace.series(kF0).end()));
  ASSERT_EQ(trace.series(FunctionId{1}).size(), 1u);
  EXPECT_EQ(trace.series(FunctionId{1})[0].minute, 7);
}

TEST(InvocationTrace, EventsAreEightBytes) {
  EXPECT_EQ(sizeof(InvocationEvent), 8u);
  EXPECT_TRUE(FitsEventHorizon(TimeRange{0, kMaxEventMinute + 1}));
  EXPECT_FALSE(FitsEventHorizon(TimeRange{0, kMaxEventMinute + 2}));
  EXPECT_FALSE(FitsEventHorizon(TimeRange{kMinEventMinute - 1, 0}));
}

TEST(InvocationTrace, LastEventMinuteIsKeptExactly) {
  InvocationTrace trace{1, TimeRange{0, kMaxEventMinute + 1}};
  trace.Add(kF0, kMaxEventMinute, 3);
  trace.Finalize();
  ASSERT_EQ(trace.series(kF0).size(), 1u);
  EXPECT_EQ(trace.series(kF0)[0].minute, kMaxEventMinute);
}

TEST(InvocationTraceDeathTest, HorizonPastTheEventRangeAborts) {
  // Checked in every build type: a minute must never be truncated.
  EXPECT_DEATH(InvocationTrace(1, TimeRange{0, kMaxEventMinute + 2}),
               "32-bit event minute range");
}

TEST(InvocationTrace, SeriesInRangeClipsBothEnds) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {10, 20, 30, 40, 50}) trace.Add(kF0, t);
  trace.Finalize();
  const auto s = trace.SeriesInRange(kF0, TimeRange{20, 41});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].minute, 20);
  EXPECT_EQ(s[2].minute, 40);
}

TEST(InvocationTrace, SeriesInRangeEmptyRange) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Finalize();
  EXPECT_TRUE(trace.SeriesInRange(kF0, TimeRange{6, 6}).empty());
  EXPECT_TRUE(trace.SeriesInRange(kF0, TimeRange{50, 60}).empty());
}

TEST(InvocationTrace, TotalAndActiveMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Add(kF0, 1, 10);
  trace.Add(kF0, 2, 5);
  trace.Add(kF1, 2, 1);
  trace.Finalize();
  EXPECT_EQ(trace.TotalInvocations(kF0, TimeRange{0, 100}), 15u);
  EXPECT_EQ(trace.ActiveMinutes(kF0, TimeRange{0, 100}), 2u);
  EXPECT_EQ(trace.TotalInvocations(TimeRange{0, 100}), 16u);
  EXPECT_EQ(trace.TotalInvocations(TimeRange{2, 3}), 6u);
}

TEST(InvocationTrace, IdleTimesAreGapsBetweenActiveMinutes) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {3, 5, 10}) trace.Add(kF0, t);
  trace.Finalize();
  EXPECT_EQ(trace.IdleTimes(kF0, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{2, 5}));
}

TEST(InvocationTrace, IdleTimesNeedTwoEvents) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 3);
  trace.Finalize();
  EXPECT_TRUE(trace.IdleTimes(kF0, TimeRange{0, 100}).empty());
}

TEST(InvocationTrace, IdleTimesRespectRange) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {0, 10, 20, 30}) trace.Add(kF0, t);
  trace.Finalize();
  // Only events at 10 and 20 are inside [5, 25).
  EXPECT_EQ(trace.IdleTimes(kF0, TimeRange{5, 25}),
            (std::vector<MinuteDelta>{10}));
}

TEST(InvocationTrace, GroupIdleTimesUnionActiveMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  for (Minute t : {0, 20}) trace.Add(kF0, t);
  for (Minute t : {10, 30}) trace.Add(kF1, t);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0, kF1};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{10, 10, 10}));
}

TEST(InvocationTrace, GroupIdleTimesDeduplicatesSharedMinutes) {
  InvocationTrace trace{2, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Add(kF1, 5);
  trace.Add(kF0, 9);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0, kF1};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            (std::vector<MinuteDelta>{4}));
}

TEST(InvocationTrace, GroupIdleTimesSingleFunctionMatchesIdleTimes) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  for (Minute t : {1, 4, 9}) trace.Add(kF0, t);
  trace.Finalize();
  const std::vector<FunctionId> group{kF0};
  EXPECT_EQ(trace.GroupIdleTimes(group, TimeRange{0, 100}),
            trace.IdleTimes(kF0, TimeRange{0, 100}));
}

TEST(MinuteIndex, ListsFunctionsPerMinute) {
  InvocationTrace trace{3, TimeRange{0, 10}};
  trace.Add(kF0, 2, 1);
  trace.Add(kF1, 2, 4);
  trace.Add(FunctionId{2}, 5, 2);
  trace.Finalize();
  const auto index = trace.BuildMinuteIndex(TimeRange{0, 10});
  EXPECT_TRUE(index.at(0).empty());
  ASSERT_EQ(index.at(2).size(), 2u);
  EXPECT_EQ(index.at(2)[0].first, kF0);
  EXPECT_EQ(index.at(2)[1].first, kF1);
  EXPECT_EQ(index.at(2)[1].second, 4u);
  ASSERT_EQ(index.at(5).size(), 1u);
  EXPECT_TRUE(index.at(11).empty());  // out of range
}

TEST(MinuteIndex, SubRangeOnly) {
  InvocationTrace trace{1, TimeRange{0, 100}};
  trace.Add(kF0, 5);
  trace.Add(kF0, 50);
  trace.Finalize();
  const auto index = trace.BuildMinuteIndex(TimeRange{40, 60});
  EXPECT_TRUE(index.at(5).empty());  // outside the indexed range
  EXPECT_EQ(index.at(50).size(), 1u);
}

}  // namespace
}  // namespace defuse::trace
