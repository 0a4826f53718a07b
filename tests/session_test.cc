// Session-based streaming API: the push-driven lifecycle must be
// observationally equivalent to the batch facade (Run is a thin wrapper
// over a session), and the dynamic query lifecycle — AddQuery mid-stream,
// RemoveQuery / QueryHandle::Cancel — must keep group membership,
// dispatch-index routing, and the shared ConstraintIndex consistent.
//
//   - Differential over the checked-in corpus: interleaved
//     Push/AdvanceWatermark schedules produce the same alert sequence and
//     per-query stats as Run(source).
//   - One lane: `SessionOptions::num_shards` is accepted and ignored — the
//     session runs on the caller's thread and starts none of its own.
//   - Attach-point semantics: a query added mid-stream sees only events
//     pushed after its attach point.
//   - Removal: state torn down, final stats retained, survivors
//     unaffected; ConstraintIndex rebuild parity (index on == off) under
//     add/remove churn.
//   - Lifecycle contract: Run twice / AddQuery after a run / operations
//     on a closed session return FailedPrecondition; the interner
//     rotation policy fires between sessions.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "core/interner.h"
#include "engine/engine.h"
#include "storage/columnar_log.h"
#include "storage/replayer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

// ---------------------------------------------------------------------
// Helpers.

std::vector<std::pair<std::string, std::string>> CorpusQueries() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           SAQL_QUERY_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == ".saql") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    out.emplace_back(std::filesystem::path(path).stem().string(),
                     text.str());
  }
  return out;
}

const EventBatch& SimCorpus() {
  static const EventBatch* events = [] {
    EnterpriseSimulator::Options opts;
    opts.duration = 14 * kMinute;
    return new EventBatch(EnterpriseSimulator(opts).Generate());
  }();
  return *events;
}

std::vector<std::string> Render(const std::vector<Alert>& alerts) {
  std::vector<std::string> out;
  out.reserve(alerts.size());
  for (const Alert& a : alerts) out.push_back(a.ToString());
  return out;
}

struct RunResult {
  std::vector<std::string> alerts;
  std::vector<std::pair<std::string, CompiledQuery::QueryStats>> stats;
};

void ExpectStatsEq(const RunResult& a, const RunResult& b,
                   const std::string& label) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].first, b.stats[i].first) << label;
    const auto& x = a.stats[i].second;
    const auto& y = b.stats[i].second;
    EXPECT_EQ(x.events_in, y.events_in) << label << " " << a.stats[i].first;
    EXPECT_EQ(x.events_past_global, y.events_past_global)
        << label << " " << a.stats[i].first;
    EXPECT_EQ(x.matches, y.matches) << label << " " << a.stats[i].first;
    EXPECT_EQ(x.windows_closed, y.windows_closed)
        << label << " " << a.stats[i].first;
    EXPECT_EQ(x.alerts, y.alerts) << label << " " << a.stats[i].first;
    EXPECT_EQ(x.eval_errors, y.eval_errors)
        << label << " " << a.stats[i].first;
  }
}

SaqlEngine::Options EngineOptions(size_t batch_size) {
  SaqlEngine::Options opts;
  opts.batch_size = batch_size;
  return opts;
}

/// The process's thread count (the `Threads:` line of /proc/self/status).
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

RunResult RunBatch(
    const std::vector<std::pair<std::string, std::string>>& queries,
    const EventBatch& events, SaqlEngine::Options opts) {
  SaqlEngine engine(opts);
  for (const auto& [name, text] : queries) {
    Status st = engine.AddQuery(text, name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  EventBatch copy = events;
  VectorEventSource source(std::move(copy));
  Status st = engine.Run(&source);
  EXPECT_TRUE(st.ok()) << st;
  return RunResult{Render(engine.alerts()), engine.query_stats()};
}

/// Drives a session over `events` with pushes of `push_size` events and a
/// watermark advance every `watermark_every` pushes (always once more at
/// the end, before Close).
RunResult RunSession(
    const std::vector<std::pair<std::string, std::string>>& queries,
    const EventBatch& events, SaqlEngine::Options opts, size_t push_size,
    size_t watermark_every) {
  SaqlEngine engine(opts);
  for (const auto& [name, text] : queries) {
    Status st = engine.AddQuery(text, name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  auto session = engine.OpenSession();
  EXPECT_TRUE(session.ok()) << session.status();
  EventBatch copy = events;
  size_t pushes = 0;
  for (size_t pos = 0; pos < copy.size(); pos += push_size) {
    size_t n = std::min(push_size, copy.size() - pos);
    Status st = (*session)->Push(copy.data() + pos, n);
    EXPECT_TRUE(st.ok()) << st;
    if (++pushes % watermark_every == 0) {
      st = (*session)->AdvanceWatermark((*session)->max_event_ts());
      EXPECT_TRUE(st.ok()) << st;
    }
  }
  Status st = (*session)->AdvanceWatermark((*session)->max_event_ts());
  EXPECT_TRUE(st.ok()) << st;
  st = (*session)->Close();
  EXPECT_TRUE(st.ok()) << st;
  return RunResult{Render(engine.alerts()), engine.query_stats()};
}

Event NetWrite(const std::string& exe, const std::string& dst,
               int64_t amount, Timestamp ts, const std::string& host = "h1",
               int64_t pid = 100) {
  return EventBuilder()
      .At(ts)
      .OnHost(host)
      .Subject(exe, pid)
      .Op(EventOp::kWrite)
      .NetObject(dst)
      .Amount(amount)
      .Build();
}

// ---------------------------------------------------------------------
// Differential: session vs batch over the checked-in corpus.

// Alerts emit inline, so the sequence depends on where watermarks land
// relative to events: compare schedules that batch identically to Run.
TEST(SessionCorpusDiff, MatchesBatchRunAcrossSchedules) {
  auto queries = CorpusQueries();
  ASSERT_GE(queries.size(), 10u);
  const EventBatch& events = SimCorpus();
  for (size_t batch : {257u, 1024u}) {
    RunResult ref = RunBatch(queries, events, EngineOptions(batch));
    RunResult got =
        RunSession(queries, events, EngineOptions(batch), batch, 1);
    EXPECT_EQ(got.alerts, ref.alerts) << "batch=" << batch;
    ExpectStatsEq(got, ref, "batch=" + std::to_string(batch));
  }
  // Per-query stats are schedule-independent even when the interleaving
  // of window-close vs stateless alerts is not.
  RunResult ref = RunBatch(queries, events, EngineOptions(1024));
  for (auto [push, wm_every] :
       {std::pair<size_t, size_t>{333, 4}, {513, 3}, {4096, 2}}) {
    RunResult got =
        RunSession(queries, events, EngineOptions(1024), push, wm_every);
    ExpectStatsEq(got, ref,
                  "push=" + std::to_string(push) + "/" +
                      std::to_string(wm_every));
  }
}

// `SessionOptions::num_shards` is accepted and ignored: a session asked
// for four lanes produces the default session's alert sequence and
// per-query stats, delivers every alert on the pushing thread, and starts
// no thread of its own.
TEST(SessionTest, LaneCountOptionRunsOneLane) {
  auto queries = CorpusQueries();
  const EventBatch& events = SimCorpus();
  SaqlEngine engine;
  for (const auto& [name, text] : queries) {
    ASSERT_TRUE(engine.AddQuery(text, name).ok()) << name;
  }
  auto run = [&](size_t num_shards) {
    RunResult out;
    bool off_thread = false;
    const std::thread::id caller = std::this_thread::get_id();
    SessionOptions so;
    so.num_shards = num_shards;
    so.alert_sink = [&](const Alert& a) {
      off_thread |= std::this_thread::get_id() != caller;
      out.alerts.push_back(a.ToString());
    };
    const int threads_before = ProcessThreads();
    auto session = engine.OpenSession(std::move(so));
    EXPECT_TRUE(session.ok()) << session.status();
    EventBatch copy = events;
    for (size_t pos = 0; pos < copy.size(); pos += 1024) {
      const size_t n = std::min<size_t>(1024, copy.size() - pos);
      EXPECT_TRUE((*session)->Push(copy.data() + pos, n).ok());
      EXPECT_TRUE(
          (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
    }
    EXPECT_LE(ProcessThreads(), threads_before)
        << "num_shards=" << num_shards;
    EXPECT_TRUE((*session)->Close().ok());
    EXPECT_FALSE(off_thread) << "num_shards=" << num_shards;
    out.stats = engine.query_stats();
    return out;
  };
  RunResult one = run(0);
  RunResult four = run(4);
  EXPECT_FALSE(one.alerts.empty());
  EXPECT_EQ(four.alerts, one.alerts);
  ExpectStatsEq(four, one, "num_shards=4");
}

// ---------------------------------------------------------------------
// Dynamic add: attach-point semantics.

TEST(SessionDynamicAddTest, AddedQuerySeesOnlyEventsAfterAttach) {
  EventBatch events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(NetWrite(i % 2 == 0 ? "evil.exe" : "ok.exe",
                              "6.6.6.6", 100, (i + 1) * kSecond, "h1",
                              100 + i % 7));
  }
  const std::string text =
      "proc p[\"%evil.exe\"] write ip i as e return p, i";

  SaqlEngine engine;
  ASSERT_TRUE(engine.AddQuery(text, "before").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  // First half, then attach, then second half.
  ASSERT_TRUE((*session)->Push(events.data(), 50).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  auto handle = (*session)->AddQuery(text, "after");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_TRUE((*session)->Push(events.data() + 50, 50).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Close().ok());

  // 50 matching events in total, 25 in each half.
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].first, "before");
  EXPECT_EQ(stats[0].second.alerts, 50u);
  EXPECT_EQ(stats[1].first, "after");
  EXPECT_EQ(stats[1].second.alerts, 25u);
  // The attach point bounds what the new query was ever shown: exactly
  // the second half (events_in counts routed-away events too, so it
  // equals the post-attach event count).
  EXPECT_EQ(stats[1].second.events_in, 50u);
  EXPECT_EQ((*handle)->stats().alerts, 25u);

  size_t before_alerts = 0, after_alerts = 0;
  for (const Alert& a : engine.alerts()) {
    if (a.query_name == "before") ++before_alerts;
    if (a.query_name == "after") {
      ++after_alerts;
      EXPECT_GT(a.ts, 50 * kSecond);  // only post-attach events
    }
  }
  EXPECT_EQ(before_alerts, 50u);
  EXPECT_EQ(after_alerts, 25u);
}

// A stateful query added mid-stream: windows before the attach point
// never existed for it; windows after close normally.
TEST(SessionDynamicAddTest, StatefulQueryAttachesMidStream) {
  EventBatch events;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 5; ++i) {
      events.push_back(NetWrite("app.exe", "1.1.1.1", 1000,
                                w * kMinute + (i + 1) * kSecond, "h1",
                                100 + i));
    }
  }
  events.push_back(NetWrite("idle.exe", "9.9.9.9", 1, 9 * kMinute));
  const std::string text =
      "proc p write ip i as e #time(1 min) "
      "state ss { amt := sum(e.amount) } group by p "
      "alert ss.amt > 0 return p, ss.amt";

  SaqlEngine engine;
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  size_t half = 20;  // first 4 windows' worth of app.exe events
  ASSERT_TRUE((*session)->Push(events.data(), half).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  auto handle = (*session)->AddQuery(text, "sum");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_TRUE(
      (*session)->Push(events.data() + half, events.size() - half).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Close().ok());

  // Windows 4..7 hold app.exe events after the attach point.
  std::vector<const Alert*> app;
  for (const Alert& a : engine.alerts()) {
    if (a.group == "app.exe") app.push_back(&a);
  }
  ASSERT_EQ(app.size(), 4u);
  for (const Alert* a : app) {
    ASSERT_TRUE(a->window.has_value());
    EXPECT_GE(a->window->start, 4 * kMinute);
    EXPECT_EQ(a->values[1].second.AsInt(), 5000);
  }
}

// A multi-event join added mid-stream starts a new group (and dispatch
// subscription) on the spot and only joins post-attach events.
TEST(SessionDynamicAddTest, JoinQueryAttachesMidStream) {
  auto seq = [](Timestamp base, const std::string& host) {
    EventBatch out;
    out.push_back(EventBuilder()
                      .At(base)
                      .OnHost(host)
                      .Subject("cmd.exe", 50)
                      .Op(EventOp::kStart)
                      .ProcObject("osql.exe", 60)
                      .Build());
    out.push_back(EventBuilder()
                      .At(base + kSecond)
                      .OnHost(host)
                      .Subject("sqlservr.exe", 70)
                      .Op(EventOp::kWrite)
                      .FileObject("/backup1.dmp")
                      .Amount(5000000)
                      .Build());
    return out;
  };
  const std::string join =
      "proc a[\"%cmd.exe\"] start proc b[\"%osql.exe\"] as e1 "
      "proc c[\"%sqlservr.exe\"] write file f as e2 "
      "with e1 -> e2 return a, b, f";

  SaqlEngine engine;
  // Open with a single-pattern query only — no join group yet.
  ASSERT_TRUE(engine
                  .AddQuery("proc p write ip i as e return p", "net")
                  .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  EventBatch first = seq(10 * kSecond, "h1");
  ASSERT_TRUE((*session)->Push(first).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());

  auto handle = (*session)->AddQuery(join, "join");
  ASSERT_TRUE(handle.ok()) << handle.status();

  EventBatch second = seq(60 * kSecond, "h2");
  ASSERT_TRUE((*session)->Push(second).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Close().ok());

  // Only the post-attach sequence (h2) completes the join.
  size_t join_alerts = 0;
  for (const Alert& a : engine.alerts()) {
    if (a.query_name == "join") {
      ++join_alerts;
      EXPECT_EQ(a.ts, 61 * kSecond);
    }
  }
  EXPECT_EQ(join_alerts, 1u);
  EXPECT_EQ((*handle)->stats().matches, 1u);
}

// ---------------------------------------------------------------------
// Dynamic remove.

TEST(SessionDynamicRemoveTest, RemovalFreezesStatsAndSparesSurvivors) {
  EventBatch events;
  for (int i = 0; i < 120; ++i) {
    events.push_back(NetWrite(i % 3 == 0 ? "a.exe" : "b.exe", "1.1.1.1",
                              100, (i + 1) * kSecond, "h1", 100 + i % 5));
  }

  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "qa")
          .ok());
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%b.exe\"] write ip i as e return p", "qb")
          .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  ASSERT_TRUE((*session)->Push(events.data(), 60).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Flush().ok());

  SaqlEngine::QueryHandle* qa = (*session)->handle("qa");
  ASSERT_NE(qa, nullptr);
  EXPECT_TRUE(qa->active());
  ASSERT_TRUE((*session)->RemoveQuery("qa").ok());
  EXPECT_FALSE(qa->active());
  CompiledQuery::QueryStats frozen = qa->stats();
  EXPECT_EQ(frozen.alerts, 20u);  // i % 3 == 0 in the first half

  // Removing again (by name or handle) reports the lifecycle error.
  EXPECT_EQ((*session)->RemoveQuery("qa").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(qa->Cancel().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->RemoveQuery("nope").code(), StatusCode::kNotFound);

  ASSERT_TRUE((*session)->Push(events.data() + 60, 60).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Close().ok());

  // Frozen stats did not move; the survivor saw everything.
  EXPECT_EQ(qa->stats().alerts, frozen.alerts);
  EXPECT_EQ(qa->stats().events_in, frozen.events_in);
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].first, "qa");
  EXPECT_EQ(stats[0].second.alerts, 20u);
  EXPECT_EQ(stats[1].first, "qb");
  EXPECT_EQ(stats[1].second.alerts, 80u);
  size_t qa_alerts = 0;
  for (const Alert& a : engine.alerts()) {
    if (a.query_name == "qa") {
      ++qa_alerts;
      EXPECT_LE(a.ts, 60 * kSecond);
    }
  }
  EXPECT_EQ(qa_alerts, 20u);
}

// Removing a stateful query drops its open windows instead of flushing
// them.
TEST(SessionDynamicRemoveTest, StatefulRemovalDropsOpenWindows) {
  SaqlEngine engine;
  ASSERT_TRUE(engine
                  .AddQuery("proc p write ip i as e #time(1 min) "
                            "state ss { amt := sum(e.amount) } group by p "
                            "alert ss.amt > 0 return p, ss.amt",
                            "sum")
                  .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  EventBatch events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(
        NetWrite("app.exe", "1.1.1.1", 100, 10 * kSecond + i, "h1", 100));
  }
  ASSERT_TRUE((*session)->Push(events).ok());
  // No watermark past the window end: the window is still open when the
  // query is removed, so it must never fire.
  ASSERT_TRUE((*session)->RemoveQuery("sum").ok());
  ASSERT_TRUE((*session)->AdvanceWatermark(10 * kMinute).ok());
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_TRUE(engine.alerts().empty());
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.events_in, 10u);
  EXPECT_EQ(stats[0].second.alerts, 0u);
}

// ---------------------------------------------------------------------
// Late events: a closed window never reopens.

// An event behind the advanced watermark must not re-create the window the
// watermark closed: [0, 10 s) alerts once, with both in-time events, and
// the late match is counted.
TEST(SessionLateEventTest, LateMatchDoesNotReopenClosedWindow) {
  SaqlEngine engine;
  ASSERT_TRUE(engine
                  .AddQuery("proc p write file f as e #time(10 s) "
                            "state ss { n := count() } group by p "
                            "alert ss.n >= 1 return p, ss.n",
                            "late")
                  .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto write_at = [](Timestamp ts) {
    EventBatch out;
    out.push_back(EventBuilder()
                      .At(ts)
                      .OnHost("h1")
                      .Subject("app.exe", 100)
                      .Op(EventOp::kWrite)
                      .FileObject("/data/f")
                      .Build());
    return out;
  };
  EventBatch first = write_at(1 * kSecond);
  EventBatch second = write_at(2 * kSecond);
  EventBatch late = write_at(3 * kSecond);
  ASSERT_TRUE((*session)->Push(first).ok());
  ASSERT_TRUE((*session)->Push(second).ok());
  ASSERT_TRUE((*session)->AdvanceWatermark(20 * kSecond).ok());
  ASSERT_TRUE((*session)->Push(late).ok());
  ASSERT_TRUE((*session)->AdvanceWatermark(30 * kSecond).ok());
  EXPECT_EQ((*session)->handle("late")->stats().late_matches, 1u);
  ASSERT_TRUE((*session)->Close().ok());

  std::vector<Alert> alerts = engine.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  ASSERT_EQ(alerts[0].values.size(), 2u);
  EXPECT_EQ(alerts[0].values[1].second.AsInt(), 2);
}

// ---------------------------------------------------------------------
// ConstraintIndex rebuild parity under churn.

TEST(SessionIndexChurnTest, IndexedChurnMatchesBruteForce) {
  // One structural shape, exact-equality tenants: an indexed group.
  auto tenant_query = [](int t) {
    return "proc p[exe_name = \"tenant" + std::to_string(t) +
           ".exe\"] write ip i as e return p, i";
  };
  EventBatch events;
  for (int i = 0; i < 240; ++i) {
    events.push_back(NetWrite("tenant" + std::to_string(i % 8) + ".exe",
                              "1.1.1.1", 100, (i + 1) * kSecond, "h1",
                              100 + i % 5));
  }

  auto churn = [&](bool member_index) {
    SaqlEngine::Options opts;
    opts.enable_member_index = member_index;
    SaqlEngine engine(opts);
    for (int t = 0; t < 4; ++t) {
      EXPECT_TRUE(
          engine.AddQuery(tenant_query(t), "t" + std::to_string(t)).ok());
    }
    auto session = engine.OpenSession();
    EXPECT_TRUE(session.ok()) << session.status();
    EventBatch copy = events;
    // Phase 1: 4 tenants.
    EXPECT_TRUE((*session)->Push(copy.data(), 80).ok());
    EXPECT_TRUE(
        (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
    // Phase 2: two more tenants join (index rebuilt over 6 members).
    for (int t = 4; t < 6; ++t) {
      auto h = (*session)->AddQuery(tenant_query(t), "t" + std::to_string(t));
      EXPECT_TRUE(h.ok()) << h.status();
    }
    EXPECT_TRUE((*session)->Push(copy.data() + 80, 80).ok());
    EXPECT_TRUE(
        (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
    // Phase 3: one tenant leaves (index rebuilt over 5).
    EXPECT_TRUE((*session)->RemoveQuery("t1").ok());
    EXPECT_TRUE((*session)->Push(copy.data() + 160, 80).ok());
    EXPECT_TRUE(
        (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
    EXPECT_TRUE((*session)->Close().ok());
    return RunResult{Render(engine.alerts()), engine.query_stats()};
  };

  RunResult indexed = churn(true);
  RunResult brute = churn(false);
  EXPECT_EQ(indexed.alerts, brute.alerts);
  ExpectStatsEq(indexed, brute, "index-churn");
  // Sanity: the workload produced something in every phase.
  EXPECT_GT(indexed.alerts.size(), 0u);
}

// The indexed-group count reflects dynamic membership (index appears when
// the group crosses min_index_members, disappears when it shrinks).
TEST(SessionIndexChurnTest, IndexedGroupCountTracksMembership) {
  SaqlEngine engine;
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(engine
                    .AddQuery("proc p[exe_name = \"t" + std::to_string(t) +
                                  ".exe\"] write ip i as e return p",
                              "t" + std::to_string(t))
                    .ok());
  }
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ((*session)->num_groups(), 1u);
  EXPECT_EQ((*session)->num_indexed_groups(), 0u);  // below the threshold

  auto h = (*session)->AddQuery(
      "proc p[exe_name = \"t2.exe\"] write ip i as e return p", "t2");
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ((*session)->num_groups(), 1u);
  EXPECT_EQ((*session)->num_indexed_groups(), 1u);  // 3 members: indexed

  ASSERT_TRUE((*session)->RemoveQuery("t0").ok());
  EXPECT_EQ((*session)->num_indexed_groups(), 0u);  // back to brute force
  ASSERT_TRUE((*session)->RemoveQuery("t1").ok());
  ASSERT_TRUE((*session)->RemoveQuery("t2").ok());
  EXPECT_EQ((*session)->num_groups(), 0u);
  EXPECT_EQ((*session)->num_active_queries(), 0u);
  ASSERT_TRUE((*session)->Close().ok());
}

// ---------------------------------------------------------------------
// Per-handle alert sinks.

TEST(SessionHandleSinkTest, TapReceivesOnlyItsQuery) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "qa")
          .ok());
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%b.exe\"] write ip i as e return p", "qb")
          .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<std::string> tapped;
  (*session)->handle("qa")->SetAlertSink(
      [&tapped](const Alert& a) { tapped.push_back(a.ToString()); });

  EventBatch events;
  for (int i = 0; i < 40; ++i) {
    events.push_back(NetWrite(i % 2 == 0 ? "a.exe" : "b.exe", "1.1.1.1",
                              100, (i + 1) * kSecond, "h1", 100 + i % 3));
  }
  ASSERT_TRUE((*session)->Push(events).ok());
  ASSERT_TRUE(
      (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  ASSERT_TRUE((*session)->Close().ok());

  // The tap saw exactly the global sink's qa alerts, in the same order.
  std::vector<std::string> expected;
  for (const Alert& a : engine.alerts()) {
    if (a.query_name == "qa") expected.push_back(a.ToString());
  }
  EXPECT_EQ(tapped, expected);
  EXPECT_EQ(tapped.size(), 20u);
}

// ---------------------------------------------------------------------
// Lifecycle contract (the documented FailedPrecondition surface).

TEST(EngineLifecycleTest, RunTwiceIsFailedPrecondition) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "q").ok());
  VectorEventSource source(EventBatch{});
  ASSERT_TRUE(engine.Run(&source).ok());
  VectorEventSource source2(EventBatch{});
  Status st = engine.Run(&source2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineLifecycleTest, AddQueryAfterRunIsFailedPrecondition) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "q").ok());
  VectorEventSource source(EventBatch{});
  ASSERT_TRUE(engine.Run(&source).ok());
  Status st = engine.AddQuery("proc p write ip i as e return p", "late");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineLifecycleTest, EngineAddQueryWhileSessionOpenIsRejected) {
  SaqlEngine engine;
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  Status st = engine.AddQuery("proc p write ip i as e return p", "q");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The session-level AddQuery is the supported path.
  auto h = (*session)->AddQuery("proc p write ip i as e return p", "q");
  EXPECT_TRUE(h.ok()) << h.status();
  ASSERT_TRUE((*session)->Close().ok());
}

TEST(EngineLifecycleTest, RunAfterSessionsIsFailedPrecondition) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p read file f as e return p", "q").ok());
  {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->Close().ok());
  }
  VectorEventSource source(EventBatch{});
  EXPECT_EQ(engine.Run(&source).code(), StatusCode::kFailedPrecondition);
}

TEST(SessionLifecycleTest, OperationsOnClosedSessionFail) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "q").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->Close().ok());

  Event e = NetWrite("a.exe", "1.1.1.1", 1, kSecond);
  EXPECT_EQ((*session)->Push(&e, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->AdvanceWatermark(kSecond).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Close().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->AddQuery("proc p write ip i as e return p", "r")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->RemoveQuery("q").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*session)->handle("q")->active());
}

TEST(SessionLifecycleTest, ConcurrentOpensAndSequentialReopen) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "q")
          .ok());
  auto s1 = engine.OpenSession();
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_EQ(engine.session_count(), 1u);

  // Sessions are concurrent tenants: a second open succeeds, gets its own
  // id and fresh stream state, and its events do not feed session 1.
  auto s2 = engine.OpenSession();
  ASSERT_TRUE(s2.ok()) << s2.status();
  EXPECT_EQ(engine.session_count(), 2u);
  EXPECT_NE((*s1)->id(), (*s2)->id());

  EventBatch events;
  events.push_back(NetWrite("a.exe", "1.1.1.1", 1, kSecond));
  ASSERT_TRUE((*s1)->Push(events).ok());
  ASSERT_TRUE((*s1)->Close().ok());
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_EQ(engine.alerts().size(), 1u);

  // Session 2 never saw session 1's events.
  ASSERT_TRUE((*s2)->Close().ok());
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_EQ(engine.alerts().size(), 1u);

  // Reopening starts fresh stream state over the same registered set.
  auto s3 = engine.OpenSession();
  ASSERT_TRUE(s3.ok()) << s3.status();
  EventBatch again;
  again.push_back(NetWrite("a.exe", "1.1.1.1", 1, kSecond));
  ASSERT_TRUE((*s3)->Push(again).ok());
  ASSERT_TRUE((*s3)->Close().ok());
  EXPECT_EQ(engine.alerts().size(), 2u);
  // A query registered on the engine persists across sessions (none
  // removed here); per-session stats reset.
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.alerts, 1u);
}

TEST(SessionLifecycleTest, DuplicateSessionQueryNameRejected) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p write ip i as e return p", "q").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto dup = (*session)->AddQuery("proc p write ip i as e return p", "q");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // A removed query's name stays reserved for the session's lifetime.
  ASSERT_TRUE((*session)->RemoveQuery("q").ok());
  auto again = (*session)->AddQuery("proc p write ip i as e return p", "q");
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE((*session)->Close().ok());
}

// The fleet check on AddQuery compares against the session's *active*
// queries: a removed or cancelled query draws no SA050, a live one does.
TEST(SessionLifecycleTest, FleetCheckSeesOnlyActiveQueries) {
  const std::string text =
      "proc p[exe_name = \"a.exe\"] write file f as e return distinct p";
  auto codes = [](const std::vector<Diagnostic>& diags) {
    std::string out;
    for (const Diagnostic& d : diags) out += d.code + ": " + d.message + "\n";
    return out;
  };
  SaqlEngine engine;
  ASSERT_TRUE(engine.AddQuery(text, "t005").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  SaqlEngine::Session& s = **session;
  ASSERT_TRUE(s.RemoveQuery("t005").ok());

  std::vector<Diagnostic> diags;
  auto readded = s.AddQuery(text, "t005-r", &diags);
  ASSERT_TRUE(readded.ok()) << readded.status();
  EXPECT_EQ(codes(diags).find("SA050"), std::string::npos) << codes(diags);

  // A duplicate of the live re-add still draws SA050, naming it.
  auto dup = s.AddQuery(text, "t005-d", &diags);
  ASSERT_TRUE(dup.ok()) << dup.status();
  EXPECT_NE(codes(diags).find("SA050: exact duplicate of fleet query "
                              "'t005-r'"),
            std::string::npos)
      << codes(diags);
  EXPECT_EQ(codes(diags).find("'t005'"), std::string::npos) << codes(diags);

  // Cancel drops a query from the fleet just like RemoveQuery.
  ASSERT_TRUE((*readded)->Cancel().ok());
  ASSERT_TRUE((*dup)->Cancel().ok());
  auto third = s.AddQuery(text, "t005-c", &diags);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(codes(diags).find("SA050"), std::string::npos) << codes(diags);
  EXPECT_EQ(s.num_active_queries(), 1u);
  ASSERT_TRUE(s.Close().ok());
}

TEST(SessionLifecycleTest, DestructorClosesOpenSession) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "q")
          .ok());
  {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    EventBatch events;
    events.push_back(NetWrite("a.exe", "1.1.1.1", 1, kSecond));
    ASSERT_TRUE((*session)->Push(events).ok());
    // No Close: the destructor must finish the stream and publish stats.
  }
  EXPECT_EQ(engine.alerts().size(), 1u);
  auto stats = engine.query_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.alerts, 1u);
  // And the engine accepts a new session afterwards.
  auto s2 = engine.OpenSession();
  EXPECT_TRUE(s2.ok()) << s2.status();
}

// ---------------------------------------------------------------------
// The session's own symbol table.

// Rotation is a per-session bound, checked at the top of every push: the
// session rotates its own table there, keeps matching under the new
// generation, and a session opened afterwards starts from a fresh table.
TEST(SessionInternerTest, RotationPolicyFiresBetweenSessions) {
  SaqlEngine::Options opts;
  opts.interner_rotate_bytes = 1;  // any payload triggers rotation
  SaqlEngine engine(opts);
  // Exact equality: the query compares subject.exe_name by symbol, so a
  // push interns that event string (a wildcard LIKE would intern none).
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"a.exe\"] write ip i as e return p", "q")
          .ok());

  auto push_pair = [](SaqlEngine::Session* session, Timestamp t) {
    EventBatch events;
    events.push_back(NetWrite("a.exe", "1.1.1.1", 1, t));
    events.push_back(NetWrite("b.exe", "1.1.1.1", 1, t + kSecond));
    ASSERT_TRUE(session->Push(events).ok());
  };

  auto first = engine.OpenSession();
  ASSERT_TRUE(first.ok()) << first.status();
  // Binding the query interned its literal, so the first push rotates.
  const Interner::Stats opened = (*first)->interner_stats();
  EXPECT_EQ(opened.rotations, 0u);
  EXPECT_GT(opened.bytes, 0u);
  push_pair(first->get(), kSecond);
  const Interner::Stats after_one = (*first)->interner_stats();
  EXPECT_EQ(after_one.rotations, 1u);
  EXPECT_NE(after_one.generation, opened.generation);
  EXPECT_EQ(engine.alerts().size(), 1u);

  // The first push interned event strings, so the next one rotates
  // again — and the re-bound query keeps matching (fresh ids).
  push_pair(first->get(), 10 * kSecond);
  EXPECT_EQ((*first)->interner_stats().rotations, 2u);
  EXPECT_EQ(engine.alerts().size(), 2u);
  ASSERT_TRUE((*first)->Close().ok());

  auto second = engine.OpenSession();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ((*second)->interner_stats().rotations, 0u);
  EXPECT_NE((*second)->interner_stats().generation,
            (*first)->interner_stats().generation);
  push_pair(second->get(), kSecond);
  EXPECT_EQ(engine.alerts().size(), 3u);
}

// Symbols are interned on first read, by the comparisons that need
// them: a session whose only query matches by wildcard LIKE interns no
// event string, however many fresh spellings it is pushed.
TEST(SessionInternerTest, LikeOnlySessionInternsNothing) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "q")
          .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  EventBatch events;
  for (int i = 0; i < 64; ++i) {
    events.push_back(NetWrite("fresh-" + std::to_string(i) + "-a.exe",
                              "1.1.1.1", 1, (i + 1) * kSecond,
                              "fresh-host-" + std::to_string(i)));
  }
  const size_t bytes_before = (*session)->interner_stats().bytes;
  ASSERT_TRUE((*session)->Push(events).ok());
  EXPECT_EQ((*session)->interner_stats().bytes, bytes_before);
  for (const Event& e : events) EXPECT_EQ(e.syms.gen, 0u);
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_EQ(engine.alerts().size(), events.size());
}

// Queries read the caller's events, never copies: the exact-equality
// compares fill the pushed buffer's symbol memos.
TEST(SessionInternerTest, PushFillsCallerMemos) {
  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"a.exe\"] write ip i as e return p", "q")
          .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  EventBatch events;
  for (int i = 0; i < 16; ++i) {
    events.push_back(NetWrite(i % 2 == 0 ? "a.exe" : "b.exe", "1.1.1.1",
                              1, (i + 1) * kSecond, "h1", 100 + i));
  }
  ASSERT_TRUE((*session)->Push(events).ok());
  for (const Event& e : events) {
    EXPECT_EQ(e.syms.gen, (*session)->interner_stats().generation);
  }
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_EQ(engine.alerts().size(), 8u);
}

TEST(SessionInternerTest, NoRotationWhenDisabled) {
  SaqlEngine engine;  // interner_rotate_bytes = 0
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"a.exe\"] write ip i as e return p", "q")
          .ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  const uint32_t gen = (*session)->interner_stats().generation;
  for (int i = 0; i < 4; ++i) {
    EventBatch events;
    events.push_back(NetWrite("host" + std::to_string(i) + ".exe",
                              "1.1.1.1", 1, (i + 1) * kSecond));
    ASSERT_TRUE((*session)->Push(events).ok());
  }
  EXPECT_EQ((*session)->interner_stats().generation, gen);
  EXPECT_EQ((*session)->interner_stats().rotations, 0u);
  ASSERT_TRUE((*session)->Close().ok());
}

// One buffer pushed to session A, then to session B: A's memos carry A's
// generation, so B refills every memo it reads instead of trusting ids
// from A's table. The two sessions intern in opposite orders, so A's ids
// read in B would swap "a.exe" and "b.exe".
TEST(SessionInternerTest, BufferPushedToTwoSessionsIsRefilledInTheSecond) {
  EventBatch buffer;
  for (int i = 0; i < 16; ++i) {
    buffer.push_back(NetWrite(i % 3 == 0 ? "a.exe" : "b.exe", "1.1.1.1", 1,
                              (i + 1) * kSecond, "h1", 100 + i));
  }
  const std::string kQueryA = "proc p[\"b.exe\"] write ip i as e return p";
  const std::string kQueryB = "proc p[\"a.exe\"] write ip i as e return p";

  // B's reference: a solo session over a fresh copy of the events.
  std::vector<std::string> solo;
  {
    SaqlEngine engine;
    SessionOptions so;
    so.alert_sink = [&solo](const Alert& a) { solo.push_back(a.ToString()); };
    auto b = engine.OpenSession(std::move(so));
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_TRUE((*b)->AddQuery(kQueryB, "qb").ok());
    EventBatch fresh = buffer;
    ASSERT_TRUE((*b)->Push(fresh).ok());
    ASSERT_TRUE((*b)->Close().ok());
  }
  ASSERT_FALSE(solo.empty());

  SaqlEngine engine;
  std::vector<std::string> got_a, got_b;
  SessionOptions so_a, so_b;
  so_a.alert_sink = [&got_a](const Alert& a) { got_a.push_back(a.ToString()); };
  so_b.alert_sink = [&got_b](const Alert& a) { got_b.push_back(a.ToString()); };
  auto a = engine.OpenSession(std::move(so_a));
  auto b = engine.OpenSession(std::move(so_b));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->AddQuery(kQueryA, "qa").ok());
  ASSERT_TRUE((*b)->AddQuery(kQueryB, "qb").ok());
  ASSERT_TRUE((*a)->Push(buffer).ok());
  for (const Event& e : buffer) {
    ASSERT_EQ(e.syms.gen, (*a)->interner_stats().generation);
  }
  ASSERT_TRUE((*b)->Push(buffer).ok());

  EXPECT_EQ(got_b, solo);
  EXPECT_EQ(got_a.size(), 10u);  // the b.exe writes
  for (const Event& e : buffer) {
    EXPECT_EQ(e.syms.gen, (*b)->interner_stats().generation);
  }
  ASSERT_TRUE((*a)->Close().ok());
  ASSERT_TRUE((*b)->Close().ok());
}

// A replayed log arrives through one reused block: the zero-copy path
// rebinds the same rows segment after segment. Each rebind must drop the
// row's memo with its strings — here the same row of consecutive
// segments alternates between a matching and a non-matching exe, so a
// kept memo would flip the query's answer.
TEST(SessionInternerTest, ReplayThroughReusedBlockMatchesVectorRun) {
  constexpr size_t kSegment = 16;
  EventBatch events;
  for (size_t i = 0; i < 4 * kSegment; ++i) {
    const bool match = (i % kSegment + i / kSegment) % 2 == 0;
    events.push_back(NetWrite(match ? "a.exe" : "b.exe", "1.1.1.1", 1,
                              static_cast<Timestamp>(i + 1) * kSecond, "h1",
                              static_cast<int64_t>(100 + i)));
  }
  const std::string path =
      ::testing::TempDir() + "/saql_session_reused_block.saqllog";
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = kSegment;
  ASSERT_TRUE(WriteColumnarEventLog(path, events, wopts).ok());
  const std::string query = "proc p[\"a.exe\"] write ip i as e return p";

  SaqlEngine reference;
  ASSERT_TRUE(reference.AddQuery(query, "q").ok());
  VectorEventSource vector_source(events);
  ASSERT_TRUE(reference.Run(&vector_source).ok());

  SaqlEngine replayed;
  ASSERT_TRUE(replayed.AddQuery(query, "q").ok());
  StreamReplayer replayer(path, StreamReplayer::Filter{});
  ASSERT_TRUE(replayer.status().ok()) << replayer.status();
  ASSERT_TRUE(replayed.Run(&replayer).ok());

  ASSERT_EQ(reference.alerts().size(), events.size() / 2);
  EXPECT_EQ(Render(replayed.alerts()), Render(reference.alerts()));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace saql
