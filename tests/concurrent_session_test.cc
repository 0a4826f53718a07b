// Concurrent multi-tenant sessions: N sessions of one engine, driven from
// N independent threads, must behave as fully isolated tenants — each
// session's alert sequence and per-query stats bit-identical to the same
// session run solo — each with its own symbol table, including under a
// forced rotation of every session's table at every push. Also pins the
// record-path collision guard (two live sessions must not record to one
// path).
//
// These tests run under TSan in CI (the thread-sanitize job's filter
// matches every *Session* suite): K sessions that each own a table, the
// process-wide generation counter, and the engine-core registries are
// exactly the code a data race would live in.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "engine/engine.h"
#include "test_util.h"

namespace saql {
namespace {

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
    // Long enough to reach the simulator's APT attack (12 minutes in) so
    // every corpus query has alert traffic to disagree about.
    opts.duration = 16 * kMinute;
    return new EventBatch(EnterpriseSimulator(opts).Generate());
  }();
  return *events;
}

/// One session's deterministic drive schedule and its observed output.
struct SessionRun {
  // Schedule.
  size_t push_size = 512;   ///< events per Push
  size_t watermark_every = 1;
  size_t stop_after = 0;    ///< 0 = whole corpus; else close mid-run

  // Output.
  Status status;
  uint64_t session_id = 0;
  std::vector<std::string> alerts;
  std::vector<std::pair<std::string, CompiledQuery::QueryStats>> stats;
  uint64_t rotations = 0;  ///< the session's own symbol-table rotations
};

/// Opens one session with a per-session alert sink and drives it over
/// `events` per `run`'s schedule. Every observable lands in `run`; the
/// drive is fully deterministic, so the same schedule solo and
/// concurrent must produce byte-identical output.
void DriveSession(SaqlEngine* engine, const EventBatch& events,
                  SessionRun* run) {
  SessionOptions sopts;
  sopts.alert_sink = [run](const Alert& a) {
    run->alerts.push_back(a.ToString());
  };
  auto session = engine->OpenSession(std::move(sopts));
  if (!session.ok()) {
    run->status = session.status();
    return;
  }
  run->session_id = (*session)->id();
  EventBatch copy = events;
  const size_t limit =
      run->stop_after == 0 ? copy.size()
                           : std::min(run->stop_after, copy.size());
  size_t pushes = 0;
  for (size_t pos = 0; pos < limit; pos += run->push_size) {
    size_t n = std::min(run->push_size, limit - pos);
    Status st = (*session)->Push(copy.data() + pos, n);
    if (!st.ok()) {
      run->status = st;
      return;
    }
    if (++pushes % run->watermark_every == 0) {
      st = (*session)->AdvanceWatermark((*session)->max_event_ts());
      if (!st.ok()) {
        run->status = st;
        return;
      }
    }
  }
  Status st = (*session)->AdvanceWatermark((*session)->max_event_ts());
  if (st.ok()) st = (*session)->Flush();
  if (!st.ok()) {
    run->status = st;
    return;
  }
  run->stats = (*session)->query_stats();
  run->rotations = (*session)->interner_stats().rotations;
  run->status = (*session)->Close();
}

void ExpectRunEq(const SessionRun& got, const SessionRun& solo,
                 const std::string& label) {
  ASSERT_TRUE(got.status.ok()) << label << ": " << got.status;
  ASSERT_TRUE(solo.status.ok()) << label << ": " << solo.status;
  EXPECT_EQ(got.alerts, solo.alerts) << label;
  ASSERT_EQ(got.stats.size(), solo.stats.size()) << label;
  for (size_t i = 0; i < got.stats.size(); ++i) {
    EXPECT_EQ(got.stats[i].first, solo.stats[i].first) << label;
    const auto& x = got.stats[i].second;
    const auto& y = solo.stats[i].second;
    const std::string ql = label + " " + got.stats[i].first;
    EXPECT_EQ(x.events_in, y.events_in) << ql;
    EXPECT_EQ(x.events_past_global, y.events_past_global) << ql;
    EXPECT_EQ(x.matches, y.matches) << ql;
    EXPECT_EQ(x.windows_closed, y.windows_closed) << ql;
    EXPECT_EQ(x.alerts, y.alerts) << ql;
    EXPECT_EQ(x.eval_errors, y.eval_errors) << ql;
  }
}

std::unique_ptr<SaqlEngine> MakeEngine(SaqlEngine::Options opts) {
  auto engine = std::make_unique<SaqlEngine>(opts);
  for (const auto& [name, text] : CorpusQueries()) {
    Status st = engine->AddQuery(text, name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  return engine;
}

// ---------------------------------------------------------------------
// Tentpole: K concurrent sessions == K solo sessions, bit for bit.

TEST(ConcurrentSessionTest, ParallelSessionsMatchSoloRuns) {
  const EventBatch& events = SimCorpus();
  // Mixed tenancy: different push splits and watermark cadences per
  // session; one session closes mid-run.
  std::vector<SessionRun> schedules = {
      {.push_size = 257, .watermark_every = 1},
      {.push_size = 512, .watermark_every = 2},
      {.push_size = 1024, .watermark_every = 1},
      {.push_size = 333,
       .watermark_every = 3,
       .stop_after = events.size() / 2},
  };

  // Solo references: each schedule alone on its own engine.
  std::vector<SessionRun> solo = schedules;
  for (SessionRun& run : solo) {
    auto engine = MakeEngine(SaqlEngine::Options{});
    DriveSession(engine.get(), events, &run);
    ASSERT_TRUE(run.status.ok()) << run.status;
    // Full-corpus schedules reach the APT attack and must alert; the
    // mid-run closer stops before it.
    if (run.stop_after == 0) ASSERT_FALSE(run.alerts.empty());
  }

  // All schedules concurrently against one engine.
  auto engine = MakeEngine(SaqlEngine::Options{});
  std::vector<SessionRun> got = schedules;
  {
    std::vector<std::thread> threads;
    threads.reserve(got.size());
    for (SessionRun& run : got) {
      threads.emplace_back(
          [&engine, &events, &run] { DriveSession(engine.get(), events, &run); });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(engine->session_count(), 0u);

  std::vector<uint64_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectRunEq(got[i], solo[i], "session " + std::to_string(i));
    ids.push_back(got[i].session_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
      << "session ids must be distinct";
}

// Dynamic add/remove inside one session while others stream: churn stays
// session-local (the other tenants' output is untouched), and the
// churning session matches its own solo run.
TEST(ConcurrentSessionTest, DynamicChurnStaysSessionLocal) {
  const EventBatch& events = SimCorpus();

  auto drive_churn = [&events](SaqlEngine* engine, SessionRun* run) {
    SessionOptions sopts;
    sopts.alert_sink = [run](const Alert& a) {
      run->alerts.push_back(a.ToString());
    };
    auto session = engine->OpenSession(std::move(sopts));
    if (!session.ok()) {
      run->status = session.status();
      return;
    }
    EventBatch copy = events;
    const size_t half = copy.size() / 2;
    Status st = (*session)->Push(copy.data(), half);
    if (st.ok()) {
      st = (*session)->AdvanceWatermark((*session)->max_event_ts());
    }
    // Attach a query mid-stream, retract a registered one.
    if (st.ok()) {
      auto h = (*session)->AddQuery(
          "proc p write ip i as e #time(1 min) "
          "state ss { amt := sum(e.amount) } group by p "
          "alert ss.amt > 0 return p, ss.amt",
          "midstream");
      if (!h.ok()) st = h.status();
    }
    if (st.ok()) st = (*session)->RemoveQuery(CorpusQueries()[0].first);
    if (st.ok()) {
      st = (*session)->Push(copy.data() + half, copy.size() - half);
    }
    if (st.ok()) {
      st = (*session)->AdvanceWatermark((*session)->max_event_ts());
    }
    if (st.ok()) st = (*session)->Flush();
    if (!st.ok()) {
      run->status = st;
      return;
    }
    run->stats = (*session)->query_stats();
    run->status = (*session)->Close();
  };

  // Solo references.
  SessionRun churn_solo;
  {
    auto engine = MakeEngine(SaqlEngine::Options{});
    drive_churn(engine.get(), &churn_solo);
    ASSERT_TRUE(churn_solo.status.ok()) << churn_solo.status;
  }
  SessionRun plain_solo{.push_size = 400, .watermark_every = 2};
  {
    auto engine = MakeEngine(SaqlEngine::Options{});
    DriveSession(engine.get(), events, &plain_solo);
    ASSERT_TRUE(plain_solo.status.ok()) << plain_solo.status;
  }

  // Concurrently: the churning session + a plain session.
  auto engine = MakeEngine(SaqlEngine::Options{});
  SessionRun churn_got;
  SessionRun plain_got{.push_size = 400, .watermark_every = 2};
  {
    std::thread a([&] { drive_churn(engine.get(), &churn_got); });
    std::thread b([&] { DriveSession(engine.get(), events, &plain_got); });
    a.join();
    b.join();
  }
  ExpectRunEq(churn_got, churn_solo, "churning session");
  ExpectRunEq(plain_got, plain_solo, "plain session");
  // Churn never leaked into the engine-level registry.
  EXPECT_EQ(engine->num_queries(), CorpusQueries().size());
}

// ---------------------------------------------------------------------
// Symbol-table rotation inside concurrently driven sessions.

TEST(ConcurrentSessionTest, ForcedMidStreamRotationPreservesAlerts) {
  const EventBatch& events = SimCorpus();

  // References: no rotation policy at all.
  std::vector<SessionRun> schedules = {
      {.push_size = 512, .watermark_every = 1},
      {.push_size = 640, .watermark_every = 1},
      {.push_size = 777, .watermark_every = 2},
  };
  std::vector<SessionRun> solo = schedules;
  for (SessionRun& run : solo) {
    auto engine = MakeEngine(SaqlEngine::Options{});
    DriveSession(engine.get(), events, &run);
    ASSERT_TRUE(run.status.ok()) << run.status;
  }

  // A 1-byte bound: every push after one that interned anything rotates
  // that session's own table, re-binds its queries and rebuilds its
  // index probe groups, while the other sessions run on untouched.
  SaqlEngine::Options opts;
  opts.interner_rotate_bytes = 1;
  auto engine = MakeEngine(opts);
  std::vector<SessionRun> got = schedules;
  {
    std::vector<std::thread> threads;
    for (SessionRun& run : got) {
      threads.emplace_back(
          [&engine, &events, &run] { DriveSession(engine.get(), events, &run); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(solo[i].rotations, 0u);
    EXPECT_GT(got[i].rotations, 0u) << "rotated session " << i;
    ExpectRunEq(got[i], solo[i], "rotated session " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------
// Record-path collision guard.

TEST(ConcurrentSessionTest, SecondSessionOnLiveRecordPathFailsCleanly) {
  const std::string dir = ::testing::TempDir() + "/saql_record_collision";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/events.saqlog";

  SaqlEngine engine;
  ASSERT_TRUE(
      engine.AddQuery("proc p[\"%a.exe\"] write ip i as e return p", "q")
          .ok());
  SessionOptions first_opts;
  first_opts.record_path = path;
  auto first = engine.OpenSession(std::move(first_opts));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE((*first)->recording_status().ok());

  // The same live path again — from this engine or any other in the
  // process — must fail the open, not corrupt the first writer.
  SessionOptions second_opts;
  second_opts.record_path = path;
  auto second = engine.OpenSession(std::move(second_opts));
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);

  // The first session is unaffected: still open, still recording.
  EventBatch events;
  events.push_back(testing::EventBuilder()
                       .At(kSecond)
                       .OnHost("h1")
                       .Subject("a.exe", 100)
                       .Op(EventOp::kWrite)
                       .NetObject("1.1.1.1")
                       .Amount(1)
                       .Build());
  ASSERT_TRUE((*first)->Push(events).ok());
  EXPECT_TRUE((*first)->recording_status().ok());
  EXPECT_EQ((*first)->recorded_events(), 1u);
  ASSERT_TRUE((*first)->Close().ok());
  EXPECT_EQ(engine.alerts().size(), 1u);

  // Once the first closed, the path is free again.
  SessionOptions third_opts;
  third_opts.record_path = path;
  auto third = engine.OpenSession(std::move(third_opts));
  ASSERT_TRUE(third.ok()) << third.status();
  ASSERT_TRUE((*third)->Close().ok());
}

}  // namespace
}  // namespace saql
