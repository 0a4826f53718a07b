#include "engine/state_maintainer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

/// Drives a StateMaintainer directly, recording closed windows.
class Harness {
 public:
  explicit Harness(const std::string& query) {
    aq_ = CompileSaql(query).value();
    sm_ = std::make_unique<StateMaintainer>(aq_);
    Status st = sm_->Init();
    EXPECT_TRUE(st.ok()) << st;
    sm_->SetCloseCallback(
        [this](const TimeWindow& w,
               std::vector<StateMaintainer::ClosedGroup>& groups) {
          for (auto& g : groups) {
            closed_.push_back({w, g.group_key, g.state.fields});
          }
        });
  }

  void Add(const Event& e) {
    PatternMatch m;
    m.events.push_back(&e);
    m.first_ts = m.last_ts = e.ts;
    sm_->AddMatch(m);
  }

  struct Closed {
    TimeWindow window;
    std::string group;
    std::vector<Value> fields;
  };

  StateMaintainer* operator->() { return sm_.get(); }
  const std::vector<Closed>& closed() const { return closed_; }

 private:
  AnalyzedQueryPtr aq_;
  std::unique_ptr<StateMaintainer> sm_;
  std::vector<Closed> closed_;
};

Event NetWrite(const std::string& exe, int64_t amount, Timestamp ts) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe, 100)
      .Op(EventOp::kWrite)
      .NetObject("1.2.3.4")
      .Amount(amount)
      .Build();
}

const char* kSumQuery =
    "proc p write ip i as e #time(1 min) "
    "state ss { amt := sum(e.amount) } group by p "
    "alert ss.amt > 0 return p, ss.amt";

TEST(StateMaintainerTest, AggregatesPerGroupPerWindow) {
  Harness h(kSumQuery);
  h.Add(NetWrite("a.exe", 5, kSecond));
  h.Add(NetWrite("a.exe", 7, 2 * kSecond));
  h.Add(NetWrite("b.exe", 11, 3 * kSecond));
  h->AdvanceWatermark(kMinute);
  ASSERT_EQ(h.closed().size(), 2u);
  // Groups are delivered in deterministic (sorted) order.
  EXPECT_EQ(h.closed()[0].group, "a.exe");
  EXPECT_EQ(h.closed()[0].fields[0].AsInt(), 12);
  EXPECT_EQ(h.closed()[1].group, "b.exe");
  EXPECT_EQ(h.closed()[1].fields[0].AsInt(), 11);
}

TEST(StateMaintainerTest, WatermarkClosesOnlyElapsedWindows) {
  Harness h(kSumQuery);
  h.Add(NetWrite("a.exe", 1, kSecond));           // window [0, 60s)
  h.Add(NetWrite("a.exe", 2, 61 * kSecond));      // window [60s, 120s)
  h->AdvanceWatermark(70 * kSecond);
  ASSERT_EQ(h.closed().size(), 1u);
  EXPECT_EQ(h.closed()[0].window.start, 0);
  h->AdvanceWatermark(120 * kSecond);
  EXPECT_EQ(h.closed().size(), 2u);
}

TEST(StateMaintainerTest, FinishClosesEverything) {
  Harness h(kSumQuery);
  h.Add(NetWrite("a.exe", 1, kSecond));
  h.Add(NetWrite("a.exe", 2, 61 * kSecond));
  h->Finish();
  EXPECT_EQ(h.closed().size(), 2u);
  EXPECT_EQ(h->stats().windows_closed, 2u);
  EXPECT_EQ(h->stats().groups_closed, 2u);
}

TEST(StateMaintainerTest, EmptyWindowsProduceNothing) {
  Harness h(kSumQuery);
  h.Add(NetWrite("a.exe", 1, kSecond));
  // Minutes 1..4 have no events: no synthetic empty states.
  h.Add(NetWrite("a.exe", 2, 5 * kMinute + kSecond));
  h->Finish();
  EXPECT_EQ(h.closed().size(), 2u);
}

TEST(StateMaintainerTest, SlidingWindowFoldsIntoAllAssigned) {
  Harness h(
      "proc p write ip i as e #time(1 min, 30 s) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  h.Add(NetWrite("a.exe", 1, 45 * kSecond));  // in [0,60) and [30,90)
  h->Finish();
  ASSERT_EQ(h.closed().size(), 2u);
  EXPECT_EQ(h.closed()[0].fields[0].AsInt(), 1);
  EXPECT_EQ(h.closed()[1].fields[0].AsInt(), 1);
  EXPECT_EQ(h.closed()[0].window.start, 0);
  EXPECT_EQ(h.closed()[1].window.start, 30 * kSecond);
}

TEST(StateMaintainerTest, CountWindowsClosePerGroupIndependently) {
  Harness h(
      "proc p write ip i as e #count(2) "
      "state ss { amt := sum(e.amount) } group by p "
      "alert ss.amt > 0 return p, ss.amt");
  h.Add(NetWrite("a.exe", 1, kSecond));
  h.Add(NetWrite("b.exe", 10, 2 * kSecond));
  EXPECT_TRUE(h.closed().empty());  // each group has only 1 match
  h.Add(NetWrite("a.exe", 2, 3 * kSecond));  // a.exe reaches 2
  ASSERT_EQ(h.closed().size(), 1u);
  EXPECT_EQ(h.closed()[0].group, "a.exe");
  EXPECT_EQ(h.closed()[0].fields[0].AsInt(), 3);
  h->Finish();  // flushes b.exe's partial window
  ASSERT_EQ(h.closed().size(), 2u);
  EXPECT_EQ(h.closed()[1].group, "b.exe");
}

TEST(StateMaintainerTest, CountWindowRestartsAfterClose) {
  Harness h(
      "proc p write ip i as e #count(2) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  for (int i = 0; i < 6; ++i) {
    h.Add(NetWrite("a.exe", 1, (i + 1) * kSecond));
  }
  EXPECT_EQ(h.closed().size(), 3u);
  for (const auto& c : h.closed()) {
    EXPECT_EQ(c.fields[0].AsInt(), 2);
  }
}

TEST(StateMaintainerTest, MultiFieldState) {
  Harness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) c := count() m := max(e.amount) } "
      "group by p "
      "alert ss.c > 0 return p, ss.amt, ss.c, ss.m");
  h.Add(NetWrite("a.exe", 5, kSecond));
  h.Add(NetWrite("a.exe", 9, 2 * kSecond));
  h->Finish();
  ASSERT_EQ(h.closed().size(), 1u);
  const auto& fields = h.closed()[0].fields;
  EXPECT_EQ(fields[0].AsInt(), 14);
  EXPECT_EQ(fields[1].AsInt(), 2);
  EXPECT_EQ(fields[2].AsInt(), 9);
}

TEST(StateMaintainerTest, ArithmeticAroundAggregates) {
  Harness h(
      "proc p write ip i as e #time(1 min) "
      "state ss { kb := sum(e.amount) / 1024 + 1 } group by p "
      "alert ss.kb > 0 return p, ss.kb");
  h.Add(NetWrite("a.exe", 2048, kSecond));
  h->Finish();
  ASSERT_EQ(h.closed().size(), 1u);
  EXPECT_DOUBLE_EQ(h.closed()[0].fields[0].AsFloat(), 3.0);
}

TEST(StateMaintainerTest, StatsTrackPeakCells) {
  Harness h(kSumQuery);
  for (int g = 0; g < 5; ++g) {
    h.Add(NetWrite("p" + std::to_string(g) + ".exe", 1, kSecond));
  }
  EXPECT_EQ(h->stats().peak_open_cells, 5u);
  EXPECT_EQ(h->stats().matches_in, 5u);
  h->Finish();
  EXPECT_EQ(h->stats().groups_closed, 5u);

  // Overlapping sliding windows, several groups: each match at 45 s lands
  // in [0, 60 s) and [30 s, 90 s), so 3 groups hold 6 cells; closing
  // [0, 60 s) frees 3, and a 4th group at 70 s opens cells in [30 s, 90 s)
  // and [60 s, 120 s) — 5 open, below the peak of 6.
  Harness sliding(
      "proc p write ip i as e #time(1 min, 30 s) "
      "state ss { c := count() } group by p "
      "alert ss.c > 0 return p, ss.c");
  for (int g = 0; g < 3; ++g) {
    sliding.Add(NetWrite("p" + std::to_string(g) + ".exe", 1, 45 * kSecond));
  }
  sliding.Add(NetWrite("p0.exe", 1, 50 * kSecond));  // no new cell
  EXPECT_EQ(sliding->stats().peak_open_cells, 6u);
  sliding->AdvanceWatermark(60 * kSecond);
  sliding.Add(NetWrite("p3.exe", 1, 70 * kSecond));
  EXPECT_EQ(sliding->stats().peak_open_cells, 6u);
  sliding.Add(NetWrite("p4.exe", 1, 75 * kSecond));
  sliding.Add(NetWrite("p5.exe", 1, 80 * kSecond));
  EXPECT_EQ(sliding->stats().peak_open_cells, 9u);
  sliding->Finish();
  EXPECT_EQ(sliding->stats().groups_closed, 3u + 6u + 3u);
}

TEST(StateMaintainerTest, InitRejectsStatelessQuery) {
  AnalyzedQueryPtr aq =
      CompileSaql("proc p read file f as e return p").value();
  StateMaintainer sm(aq);
  EXPECT_FALSE(sm.Init().ok());
}

}  // namespace
}  // namespace saql
