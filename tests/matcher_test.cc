#include "engine/multievent_matcher.h"

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "parser/analyzer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

/// Harness compiling a query's patterns and running events through the
/// matcher.
class MatcherHarness {
 public:
  explicit MatcherHarness(const std::string& query_text,
                          MultieventMatcher::Options options =
                              MultieventMatcher::Options{}) {
    Result<AnalyzedQueryPtr> aq = CompileSaql(query_text);
    EXPECT_TRUE(aq.ok()) << aq.status();
    aq_ = aq.value();
    for (const EventPatternDecl& p : aq_->query->patterns) {
      patterns_.emplace_back(p);
    }
    matcher_ =
        std::make_unique<MultieventMatcher>(aq_, &patterns_, options);
  }

  std::vector<PatternMatch> Feed(const Event& e) {
    std::vector<PatternMatch> out;
    matcher_->OnEvent(e, &out);
    return out;
  }

  MultieventMatcher* matcher() { return matcher_.get(); }

 private:
  AnalyzedQueryPtr aq_;
  std::vector<CompiledPattern> patterns_;
  std::unique_ptr<MultieventMatcher> matcher_;
};

Event Start(const std::string& parent, const std::string& child,
            Timestamp ts, int64_t parent_pid = 10, int64_t child_pid = 20) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(parent, parent_pid)
      .Op(EventOp::kStart)
      .ProcObject(child, child_pid)
      .Build();
}

Event FileIo(const std::string& exe, EventOp op, const std::string& path,
             Timestamp ts, int64_t pid = 30) {
  return EventBuilder()
      .At(ts)
      .OnHost("h1")
      .Subject(exe, pid)
      .Op(op)
      .FileObject(path)
      .Build();
}

TEST(MatcherTest, OrderedTwoStepSequence) {
  MatcherHarness h(
      "proc a[\"%cmd.exe\"] start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a");
  EXPECT_TRUE(h.Feed(Start("cmd.exe", "osql.exe", 100)).empty());
  auto matches = h.Feed(FileIo("sqlservr.exe", EventOp::kWrite, "/d", 200));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].events[0]->subject.exe_name, "cmd.exe");
  EXPECT_EQ(matches[0].events[1]->obj_file.path, "/d");
  EXPECT_EQ(matches[0].first_ts, 100);
  EXPECT_EQ(matches[0].last_ts, 200);
}

TEST(MatcherTest, OrderRejected) {
  MatcherHarness h(
      "proc a[\"%cmd.exe\"] start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a");
  // e2-type event first: no partial exists yet, so no match when the
  // e1-type event follows alone.
  EXPECT_TRUE(h.Feed(FileIo("sqlservr.exe", EventOp::kWrite, "/d", 50)).empty());
  EXPECT_TRUE(h.Feed(Start("cmd.exe", "osql.exe", 100)).empty());
  EXPECT_EQ(h.matcher()->stats().matches, 0u);
}

TEST(MatcherTest, SkipTillAnyMatchIgnoresNoise) {
  MatcherHarness h(
      "proc a[\"%cmd.exe\"] start proc b as e1 "
      "proc c[\"%sqlservr.exe\"] write file f as e2 "
      "with e1 -> e2 return a");
  h.Feed(Start("cmd.exe", "osql.exe", 100));
  // Noise events in between must not break the partial match.
  h.Feed(FileIo("chrome.exe", EventOp::kRead, "/x", 110));
  h.Feed(Start("explorer.exe", "notepad.exe", 120));
  auto matches = h.Feed(FileIo("sqlservr.exe", EventOp::kWrite, "/d", 200));
  EXPECT_EQ(matches.size(), 1u);
}

TEST(MatcherTest, SharedVariableEnforced) {
  // f1 must be the same file in both patterns (paper Query 1's dump file).
  MatcherHarness h(
      "proc a write file f1 as e1 "
      "proc b read file f1 as e2 "
      "with e1 -> e2 return a, b, f1");
  h.Feed(FileIo("sqlservr.exe", EventOp::kWrite, "/backup1.dmp", 100));
  // Read of a DIFFERENT file does not complete the match.
  EXPECT_TRUE(h.Feed(FileIo("sbblv.exe", EventOp::kRead, "/other.txt", 150))
                  .empty());
  // Read of the same file completes it.
  auto matches = h.Feed(FileIo("sbblv.exe", EventOp::kRead,
                               "/backup1.dmp", 200));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].events[1]->obj_file.path, "/backup1.dmp");
}

TEST(MatcherTest, SharedSubjectVariableEnforced) {
  // Same process must read the file then talk to the network (p4 in
  // Query 1). Process identity is (host, pid).
  MatcherHarness h(
      "proc p read file f as e1 "
      "proc p write ip i as e2 "
      "with e1 -> e2 return p");
  h.Feed(FileIo("sbblv.exe", EventOp::kRead, "/dump", 100, /*pid=*/77));
  // A different pid writing to the network is not the same p.
  Event other = EventBuilder()
                    .At(150)
                    .OnHost("h1")
                    .Subject("sbblv.exe", 99)
                    .Op(EventOp::kWrite)
                    .NetObject("6.6.6.6")
                    .Build();
  EXPECT_TRUE(h.Feed(other).empty());
  Event same = EventBuilder()
                   .At(200)
                   .OnHost("h1")
                   .Subject("sbblv.exe", 77)
                   .Op(EventOp::kWrite)
                   .NetObject("6.6.6.6")
                   .Build();
  EXPECT_EQ(h.Feed(same).size(), 1u);
}

TEST(MatcherTest, ForkingFindsAllCombinations) {
  MatcherHarness h(
      "proc a start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a");
  h.Feed(Start("cmd.exe", "x.exe", 100, 10, 20));
  h.Feed(Start("cmd.exe", "y.exe", 110, 10, 21));
  // Both partials complete on the same closing event.
  auto matches = h.Feed(FileIo("w.exe", EventOp::kWrite, "/f", 200));
  EXPECT_EQ(matches.size(), 2u);
}

TEST(MatcherTest, BoundedGapRejectsSlowSequence) {
  MatcherHarness h(
      "proc a start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 ->[10 s] e2 return a");
  h.Feed(Start("cmd.exe", "x.exe", 0));
  EXPECT_TRUE(
      h.Feed(FileIo("w.exe", EventOp::kWrite, "/f", 20 * kSecond)).empty());
  // Within the bound it matches.
  h.Feed(Start("cmd.exe", "x.exe", 30 * kSecond));
  EXPECT_EQ(
      h.Feed(FileIo("w.exe", EventOp::kWrite, "/f", 35 * kSecond)).size(),
      1u);
}

TEST(MatcherTest, UnorderedMatchesBothOrders) {
  MatcherHarness h(
      "proc a[\"%cmd.exe\"] start proc b as e1 "
      "proc c[\"%sqlservr.exe\"] write file f as e2 "
      "return a");  // no `with` clause: unordered
  // Reverse order still matches.
  h.Feed(FileIo("sqlservr.exe", EventOp::kWrite, "/d", 100));
  auto matches = h.Feed(Start("cmd.exe", "osql.exe", 200));
  EXPECT_EQ(matches.size(), 1u);
}

TEST(MatcherTest, PruneDropsStalePartials) {
  MatcherHarness h(
      "proc a start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a",
      MultieventMatcher::Options{/*match_horizon=*/kMinute,
                                 /*max_partial_matches=*/1000});
  h.Feed(Start("cmd.exe", "x.exe", 0));
  EXPECT_EQ(h.matcher()->live_partials(), 1u);
  h.matcher()->Prune(2 * kMinute);
  EXPECT_EQ(h.matcher()->live_partials(), 0u);
  // The stale partial cannot complete any more.
  EXPECT_TRUE(
      h.Feed(FileIo("w.exe", EventOp::kWrite, "/f", 2 * kMinute)).empty());
}

TEST(MatcherTest, CapBoundsPartialCount) {
  MatcherHarness h(
      "proc a start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a",
      MultieventMatcher::Options{24 * kHour, /*max_partial_matches=*/5});
  for (int i = 0; i < 20; ++i) {
    h.Feed(Start("cmd.exe", "x.exe", i * 10, 10, 20 + i));
  }
  EXPECT_LE(h.matcher()->live_partials(), 5u);
  EXPECT_GT(h.matcher()->stats().partials_dropped, 0u);
}

TEST(MatcherTest, FourStepPaperQuery1Sequence) {
  MatcherHarness h(testing::ReadQueryFile("query1_rule.saql"));
  auto host = [](Event e) {
    e.agent_id = "db-server-01";
    return e;
  };
  // The c5 exfiltration sequence on the DB server.
  h.Feed(host(Start("cmd.exe", "osql.exe", 100, 11, 12)));
  h.Feed(host(FileIo("sqlservr.exe", EventOp::kWrite,
                     "C:\\MSSQL\\Backup\\backup1.dmp", 200, 13)));
  h.Feed(host(FileIo("sbblv.exe", EventOp::kRead,
                     "C:\\MSSQL\\Backup\\backup1.dmp", 300, 14)));
  Event exfil = EventBuilder()
                    .At(400)
                    .OnHost("db-server-01")
                    .Subject("sbblv.exe", 14)
                    .Op(EventOp::kWrite)
                    .NetObject("66.77.88.129", 443)
                    .Amount(1000000)
                    .Build();
  auto matches = h.Feed(exfil);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].events.size(), 4u);
  EXPECT_EQ(matches[0].events[3]->obj_net.dst_ip, "66.77.88.129");
}

TEST(MatcherTest, EventMatchingNoPatternDoesNotAllocate) {
  MatcherHarness h(testing::ReadQueryFile("query1_rule.saql"));
  // Matches none of Query 1's four patterns.
  const Event noise = Start("explorer.exe", "notepad.exe", 50, 7, 8);
  std::vector<PatternMatch> out;
  out.reserve(1);

  // No live partials.
  size_t before = testing::HeapAllocs();
  h.matcher()->OnEvent(noise, &out);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  // With a live partial waiting for evt2.
  h.Feed(Start("cmd.exe", "osql.exe", 100, 11, 12));
  ASSERT_EQ(h.matcher()->live_partials(), 1u);
  before = testing::HeapAllocs();
  for (int i = 0; i < 8; ++i) h.matcher()->OnEvent(noise, &out);
  EXPECT_EQ(testing::HeapAllocs() - before, 0u);

  EXPECT_TRUE(out.empty());
  EXPECT_EQ(h.matcher()->live_partials(), 1u);
  EXPECT_EQ(h.matcher()->stats().events_in, 10u);
  EXPECT_EQ(h.matcher()->stats().peak_partials, 1u);
}

TEST(MatcherTest, StatsTrackPeaks) {
  MatcherHarness h(
      "proc a start proc b as e1 "
      "proc c write file f as e2 "
      "with e1 -> e2 return a");
  for (int i = 0; i < 3; ++i) h.Feed(Start("p.exe", "c.exe", i, 1, 50 + i));
  EXPECT_EQ(h.matcher()->stats().partials_created, 3u);
  EXPECT_EQ(h.matcher()->stats().peak_partials, 3u);
  EXPECT_EQ(h.matcher()->stats().events_in, 3u);
}

}  // namespace
}  // namespace saql
