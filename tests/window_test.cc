#include "stream/window.h"

#include <gtest/gtest.h>

namespace saql {
namespace {

WindowSpec TimeSpec(Duration length, Duration slide = 0) {
  WindowSpec w;
  w.kind = WindowSpec::Kind::kTime;
  w.length = length;
  w.slide = slide;
  return w;
}

TEST(WindowAssignerTest, TumblingAssignsExactlyOne) {
  WindowAssigner a(TimeSpec(10 * kMinute));
  auto ws = a.Assign(25 * kMinute);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].start, 20 * kMinute);
  EXPECT_EQ(ws[0].end, 30 * kMinute);
  EXPECT_TRUE(ws[0].Contains(25 * kMinute));
}

TEST(WindowAssignerTest, BoundaryBelongsToNextWindow) {
  WindowAssigner a(TimeSpec(10 * kMinute));
  auto ws = a.Assign(20 * kMinute);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].start, 20 * kMinute);
}

TEST(WindowAssignerTest, HoppingAssignsMultiple) {
  // 10-minute window sliding every 5 minutes: each event is in 2 windows.
  WindowAssigner a(TimeSpec(10 * kMinute, 5 * kMinute));
  auto ws = a.Assign(12 * kMinute);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].start, 5 * kMinute);   // earliest first
  EXPECT_EQ(ws[1].start, 10 * kMinute);
  for (const TimeWindow& w : ws) {
    EXPECT_TRUE(w.Contains(12 * kMinute)) << w.ToString();
  }
}

TEST(WindowAssignerTest, FineSlideCount) {
  WindowAssigner a(TimeSpec(10 * kSecond, 2 * kSecond));
  auto ws = a.Assign(100 * kSecond);
  EXPECT_EQ(ws.size(), 5u);  // length/slide windows
}

TEST(WindowAssignerTest, WindowsAlignToSlideGrid) {
  WindowAssigner a(TimeSpec(10 * kMinute));
  // Two queries with the same spec agree on boundaries regardless of when
  // their first event arrives (this enables master/dependent sharing).
  auto w1 = a.Assign(3 * kMinute + 17);
  auto w2 = a.Assign(9 * kMinute + 55 * kSecond);
  EXPECT_EQ(w1[0].start, w2[0].start);
}

/// Property sweep: every assigned window contains the timestamp, windows
/// are distinct, and count == ceil(length/slide).
class WindowSweep
    : public ::testing::TestWithParam<std::pair<Duration, Duration>> {};

TEST_P(WindowSweep, AssignInvariants) {
  auto [length, slide] = GetParam();
  WindowAssigner a(TimeSpec(length, slide));
  for (Timestamp ts : {Timestamp{0}, Timestamp{1}, 7 * kSecond,
                       63 * kSecond, 3600 * kSecond, 86400 * kSecond}) {
    auto ws = a.Assign(ts);
    // A length-L interval on a slide-S grid contains floor(L/S) or
    // floor(L/S)+1 grid points depending on phase (exactly L/S when S
    // divides L).
    size_t lo = static_cast<size_t>(length / a.slide());
    size_t hi = length % a.slide() == 0 ? lo : lo + 1;
    EXPECT_GE(ws.size(), lo);
    EXPECT_LE(ws.size(), hi);
    for (size_t i = 0; i < ws.size(); ++i) {
      EXPECT_TRUE(ws[i].Contains(ts)) << ws[i].ToString() << " ts=" << ts;
      EXPECT_EQ(ws[i].end - ws[i].start, length);
      if (i > 0) EXPECT_GT(ws[i].start, ws[i - 1].start);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, WindowSweep,
    ::testing::Values(std::make_pair(10 * kSecond, Duration{0}),
                      std::make_pair(10 * kSecond, 5 * kSecond),
                      std::make_pair(10 * kSecond, 3 * kSecond),
                      std::make_pair(kMinute, 10 * kSecond),
                      std::make_pair(10 * kMinute, kMinute)));

}  // namespace
}  // namespace saql
