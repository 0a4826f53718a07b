// Sharded execution: the N-lane hash-partitioned executor must be
// observationally equivalent to the single-threaded executor — same alert
// multiset on the same corpus for every query in queries/ — with
// deterministic output ordering, cross-shard window merging for stateful
// queries, and lane-by-lane routed-skip stats parity.

#include "stream/sharded_executor.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "engine/engine.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

// ---------------------------------------------------------------------------
// ShardedStreamExecutor unit level.
// ---------------------------------------------------------------------------

class RecordingProcessor : public EventProcessor {
 public:
  void OnEvent(const Event& event) override { events.push_back(event); }
  void OnWatermark(Timestamp ts) override { watermarks.push_back(ts); }
  void OnFinish() override { finished = true; }

  EventBatch events;
  std::vector<Timestamp> watermarks;
  bool finished = false;
};

EventBatch MixedHostStream(size_t n) {
  EventBatch events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back(EventBuilder()
                         .Id(i + 1)
                         .At(static_cast<Timestamp>(i + 1) * kSecond)
                         .OnHost("host-" + std::to_string(i % 5))
                         .Subject("app.exe", 100 + static_cast<int64_t>(i % 7))
                         .Op(EventOp::kWrite)
                         .FileObject("/data/f" + std::to_string(i % 3))
                         .Build());
  }
  return events;
}

TEST(ShardedExecutorTest, EveryEventReachesExactlyOneShard) {
  const size_t kShards = 4;
  ShardedStreamExecutor::Options opts;
  opts.num_shards = kShards;
  ShardedStreamExecutor sharded(opts);
  std::vector<RecordingProcessor> procs(kShards);
  for (size_t s = 0; s < kShards; ++s) sharded.Subscribe(s, &procs[s]);

  VectorEventSource source(MixedHostStream(500));
  testing::DriveToEnd(&sharded, &source, /*batch_size=*/64);

  size_t total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(procs[s].finished);
    total += procs[s].events.size();
    // Per-lane order is the input (timestamp) order.
    for (size_t i = 1; i < procs[s].events.size(); ++i) {
      EXPECT_LE(procs[s].events[i - 1].ts, procs[s].events[i].ts);
    }
    // Every event on this shard is one SubjectKeyShard assigns here.
    for (const Event& e : procs[s].events) {
      EXPECT_EQ(ShardedStreamExecutor::SubjectKeyShard(e, kShards), s);
    }
  }
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(sharded.splitter_stats().input_events, 500u);
  EXPECT_GT(sharded.num_shards(), 1u);
}

/// Records what a lane delivered: event addresses, watermarks, the finish,
/// and the threads it ran on. Guarded, so that a lane still running after
/// the executor call returned fails the checks instead of racing them.
class AddressRecorder final : public EventProcessor {
 public:
  void OnBatch(const EventRefs& events) override {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(seen.end(), events.begin(), events.end());
    threads.push_back(std::this_thread::get_id());
  }
  void OnEvent(const Event&) override {}
  void OnWatermark(Timestamp ts) override {
    std::lock_guard<std::mutex> lock(mu);
    watermarks.push_back(ts);
    threads.push_back(std::this_thread::get_id());
  }
  void OnFinish() override {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
    threads.push_back(std::this_thread::get_id());
  }

  std::mutex mu;
  std::vector<const Event*> seen;
  std::vector<Timestamp> watermarks;
  bool finished = false;
  std::vector<std::thread::id> threads;
};

TEST(ShardedExecutorTest, OneLaneRunsInline) {
  // One lane has nothing to partition: it runs on the caller's thread over
  // the caller's buffer — no worker, no hashing, no copy.
  ShardedStreamExecutor::Options opts;
  opts.num_shards = 1;
  ShardedStreamExecutor sharded(opts);
  AddressRecorder proc;
  sharded.Subscribe(0, &proc);
  sharded.BeginStream();

  EventBatch events = MixedHostStream(100);
  sharded.PushBatch(events.data(), events.size());
  {
    std::lock_guard<std::mutex> lock(proc.mu);
    ASSERT_EQ(proc.seen.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(proc.seen[i], &events[i]) << "event " << i;
    }
  }
  EXPECT_EQ(sharded.input_max_ts(), events.back().ts);
  ASSERT_TRUE(sharded.AdvanceWatermark(events.back().ts));
  sharded.FinishStream();
  std::lock_guard<std::mutex> lock(proc.mu);
  EXPECT_TRUE(proc.finished);
  ASSERT_EQ(proc.threads.size(), 3u);  // batch, watermark, finish
  for (std::thread::id id : proc.threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(sharded.lane_stats(0)->events, events.size());
}

TEST(ShardedExecutorTest, SynchronousStep) {
  // Every executor call is one step that returns only after every lane
  // finished it: there is nothing to wait for afterwards.
  for (size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedStreamExecutor::Options opts;
    opts.num_shards = shards;
    ShardedStreamExecutor sharded(opts);
    std::vector<AddressRecorder> lanes(shards + 1);  // lane N is last
    for (size_t lane = 0; lane <= shards; ++lane) {
      sharded.Subscribe(lane, &lanes[lane]);
    }
    sharded.BeginStream();

    EventBatch events = MixedHostStream(200);
    sharded.PushBatch(events.data(), events.size());
    // Each shard lane saw exactly its partition, in order, at the caller's
    // own addresses; lane N saw the whole batch in order.
    std::vector<std::vector<const Event*>> expected(shards + 1);
    for (const Event& e : events) {
      expected[ShardedStreamExecutor::SubjectKeyShard(e, shards)].push_back(
          &e);
      expected[shards].push_back(&e);
    }
    for (size_t lane = 0; lane <= shards; ++lane) {
      std::lock_guard<std::mutex> lock(lanes[lane].mu);
      EXPECT_EQ(lanes[lane].seen, expected[lane]) << "lane " << lane;
    }

    const Timestamp wm = events.back().ts;
    ASSERT_TRUE(sharded.AdvanceWatermark(wm));
    for (size_t lane = 0; lane <= shards; ++lane) {
      std::lock_guard<std::mutex> lock(lanes[lane].mu);
      EXPECT_EQ(lanes[lane].watermarks, std::vector<Timestamp>{wm})
          << "lane " << lane;
    }

    // A call step runs once on every shard lane (not on lane N).
    std::vector<int> calls(shards, 0);  // each slot written by its lane
    sharded.RunOnShards([&calls](size_t lane) { ++calls[lane]; });
    EXPECT_EQ(calls, std::vector<int>(shards, 1));

    sharded.FinishStream();
    for (size_t lane = 0; lane <= shards; ++lane) {
      std::lock_guard<std::mutex> lock(lanes[lane].mu);
      EXPECT_TRUE(lanes[lane].finished) << "lane " << lane;
    }
  }
}

TEST(ShardedExecutorTest, SameSubjectKeyAlwaysSameShard) {
  Event a = EventBuilder().OnHost("h1").Subject("x.exe", 42).Build();
  Event b = EventBuilder()
                .OnHost("h1")
                .Subject("other.exe", 42)  // exe differs; (host, pid) equal
                .Op(EventOp::kConnect)
                .NetObject("1.2.3.4")
                .Build();
  for (size_t n : {2u, 3u, 4u, 8u}) {
    EXPECT_EQ(ShardedStreamExecutor::SubjectKeyShard(a, n),
              ShardedStreamExecutor::SubjectKeyShard(b, n));
  }
  Event c = EventBuilder().OnHost("h2").Subject("x.exe", 42).Build();
  bool differs_somewhere = false;
  for (size_t n : {2u, 3u, 4u, 8u, 16u, 32u}) {
    if (ShardedStreamExecutor::SubjectKeyShard(a, n) !=
        ShardedStreamExecutor::SubjectKeyShard(c, n)) {
      differs_somewhere = true;
    }
  }
  EXPECT_TRUE(differs_somewhere);  // hosts actually spread
}

TEST(ShardedExecutorTest, GlobalLaneSeesFullOrderedStream) {
  ShardedStreamExecutor::Options opts;
  opts.num_shards = 3;
  ShardedStreamExecutor sharded(opts);
  std::vector<RecordingProcessor> procs(3);
  for (size_t s = 0; s < 3; ++s) sharded.Subscribe(s, &procs[s]);
  RecordingProcessor global;
  sharded.Subscribe(3, &global);  // lane N: the global lane

  EventBatch stream = MixedHostStream(300);
  VectorEventSource source(stream);
  testing::DriveToEnd(&sharded, &source, 32);

  ASSERT_NE(sharded.lane_stats(3), nullptr);
  ASSERT_EQ(global.events.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(global.events[i].id, stream[i].id);
  }
  EXPECT_TRUE(global.finished);
  // Watermarks are monotone per lane.
  for (size_t i = 1; i < global.watermarks.size(); ++i) {
    EXPECT_LT(global.watermarks[i - 1], global.watermarks[i]);
  }
}

/// Global-lane progress: a watermark or finish step returns only *after*
/// lane N's subscriber has seen that watermark / end of stream, and lane N
/// runs on the caller's thread whether the shard lanes are threaded or
/// inline (shard count 1).
void ExpectGlobalLaneStepFollowsSubscriber(size_t shards) {
  std::mutex mu;
  std::vector<std::string> log;  // lane N's subscriber and step returns
  std::vector<std::thread::id> sub_threads;
  class GlobalLogger final : public EventProcessor {
   public:
    GlobalLogger(std::mutex* mu, std::vector<std::string>* log,
                 std::vector<std::thread::id>* threads)
        : mu_(mu), log_(log), threads_(threads) {}
    void OnEvent(const Event&) override {}
    void OnWatermark(Timestamp ts) override {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back("sub wm " + std::to_string(ts));
      threads_->push_back(std::this_thread::get_id());
    }
    void OnFinish() override {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back("sub finish");
      threads_->push_back(std::this_thread::get_id());
    }

   private:
    std::mutex* mu_;
    std::vector<std::string>* log_;
    std::vector<std::thread::id>* threads_;
  };

  ShardedStreamExecutor::Options opts;
  opts.num_shards = shards;
  ShardedStreamExecutor sharded(opts);
  std::vector<AddressRecorder> procs(shards);
  for (size_t s = 0; s < shards; ++s) sharded.Subscribe(s, &procs[s]);
  GlobalLogger global(&mu, &log, &sub_threads);
  sharded.Subscribe(shards, &global);

  VectorEventSource source(MixedHostStream(200));
  sharded.BeginStream();
  while (EventBlock* block = source.NextBlock(/*max_events=*/50)) {
    sharded.PushBlock(block);
    const Timestamp wm = sharded.input_max_ts();
    ASSERT_TRUE(sharded.AdvanceWatermark(wm));
    std::lock_guard<std::mutex> lock(mu);
    log.push_back("step wm " + std::to_string(wm));
  }
  sharded.FinishStream();
  {
    std::lock_guard<std::mutex> lock(mu);
    log.push_back("step finish");
  }

  std::vector<std::string> expected;
  for (int b = 1; b <= 4; ++b) {
    const std::string ts = std::to_string(b * 50 * kSecond);
    expected.push_back("sub wm " + ts);
    expected.push_back("step wm " + ts);
  }
  expected.push_back("sub finish");
  expected.push_back("step finish");
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(log, expected);
  ASSERT_EQ(sub_threads.size(), expected.size() / 2);
  for (std::thread::id id : sub_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  // Shard lane 0 runs on the caller's thread; any other shard lane on its
  // own worker.
  for (size_t s = 0; s < shards; ++s) {
    std::lock_guard<std::mutex> lane_lock(procs[s].mu);
    EXPECT_TRUE(procs[s].finished) << "lane " << s;
    for (std::thread::id id : procs[s].threads) {
      if (s == 0) {
        EXPECT_EQ(id, std::this_thread::get_id()) << "lane " << s;
      } else {
        EXPECT_NE(id, std::this_thread::get_id()) << "lane " << s;
      }
    }
  }
  ASSERT_NE(sharded.lane_stats(shards), nullptr);
  EXPECT_EQ(sharded.lane_stats(shards)->events, 200u);
  EXPECT_EQ(sharded.lane_stats(shards + 1), nullptr);
}

TEST(ShardedExecutorTest, GlobalLaneHooksFollowSubscriberThreaded) {
  ExpectGlobalLaneStepFollowsSubscriber(2);
}

TEST(ShardedExecutorTest, GlobalLaneHooksFollowSubscriberInline) {
  ExpectGlobalLaneStepFollowsSubscriber(1);
}

TEST(ShardedExecutorTest, MergedStatsKeepRoutedSkipParity) {
  // Two subscribers per shard with disjoint interests: parity
  // (deliveries + routed_skips == subscribers * lane events) must hold
  // lane by lane and therefore for the merged sum.
  class FileOnly final : public RecordingProcessor {
   public:
    RoutingInterest Interest() const override {
      RoutingInterest r;
      r.Add(EntityType::kFile, OpBit(EventOp::kWrite));
      return r;
    }
  };
  class NetOnly final : public RecordingProcessor {
   public:
    RoutingInterest Interest() const override {
      RoutingInterest r;
      r.Add(EntityType::kNetwork, OpBit(EventOp::kConnect));
      return r;
    }
  };

  const size_t kShards = 2;
  ShardedStreamExecutor::Options opts;
  opts.num_shards = kShards;
  ShardedStreamExecutor sharded(opts);
  std::vector<FileOnly> file_procs(kShards);
  std::vector<NetOnly> net_procs(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    sharded.Subscribe(s, &file_procs[s]);
    sharded.Subscribe(s, &net_procs[s]);
  }
  VectorEventSource source(MixedHostStream(400));  // all file writes
  testing::DriveToEnd(&sharded, &source, 128);

  ExecutorStats merged = sharded.merged_stats();
  EXPECT_EQ(merged.events, 400u);
  EXPECT_EQ(merged.deliveries + merged.routed_skips, 2 * 400u);
  size_t file_seen = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const ExecutorStats& lane = *sharded.lane_stats(s);
    EXPECT_EQ(lane.deliveries + lane.routed_skips, 2 * lane.events);
    file_seen += file_procs[s].events.size();
    EXPECT_TRUE(net_procs[s].events.empty());
  }
  EXPECT_EQ(file_seen, 400u);
}

// ---------------------------------------------------------------------------
// Engine-level shard equivalence on the paper corpus.
// ---------------------------------------------------------------------------

/// Every checked-in query: the paper's Queries 1–4 plus the APT demo set
/// (multi-event rules exercise the global lane; a6/a7/a8 and queries 2–4
/// exercise the cross-shard window merge, incl. set-invariant and DBSCAN
/// cluster stages).
const char* const kCorpusQueries[][2] = {
    {"q1-exfiltration", "query1_rule.saql"},
    {"q2-timeseries", "query2_timeseries.saql"},
    {"q3-invariant", "query3_invariant.saql"},
    {"q4-outlier", "query4_outlier.saql"},
    {"r1-initial-compromise", "apt/r1_initial_compromise.saql"},
    {"r2-malware-infection", "apt/r2_malware_infection.saql"},
    {"r3-privilege-escalation", "apt/r3_privilege_escalation.saql"},
    {"r4-penetration", "apt/r4_penetration.saql"},
    {"a6-invariant-excel", "apt/a6_invariant_excel.saql"},
    {"a7-timeseries-network", "apt/a7_timeseries_network.saql"},
    {"a8-outlier-dbscan", "apt/a8_outlier_dbscan.saql"},
};

struct CorpusRun {
  std::vector<std::string> alerts;  ///< rendered, in emission order
  uint64_t events = 0;
  std::map<std::string, CompiledQuery::QueryStats> stats;
  std::string errors;
};

CorpusRun RunCorpus(size_t num_shards) {
  EnterpriseSimulator::Options sopts;
  sopts.num_workstations = 2;
  sopts.duration = 20 * kMinute;
  sopts.events_per_host_per_second = 8;
  sopts.attack_offset = 8 * kMinute;
  sopts.include_attack = true;
  sopts.seed = 20200227;
  EnterpriseSimulator sim(sopts);
  auto source = sim.MakeSource();

  SaqlEngine::Options eopts;
  eopts.num_shards = num_shards;
  SaqlEngine engine(eopts);
  for (const auto& [name, file] : kCorpusQueries) {
    Status st = engine.AddQuery(testing::ReadQueryFile(file), name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  Status st = engine.Run(source.get());
  EXPECT_TRUE(st.ok()) << st;

  CorpusRun run;
  for (const Alert& a : engine.alerts()) run.alerts.push_back(a.ToString());
  run.events = engine.executor_stats().events;
  for (const auto& [name, qs] : engine.query_stats()) run.stats[name] = qs;
  run.errors = engine.errors().ToString();
  return run;
}

std::vector<std::string> AsMultiset(std::vector<std::string> alerts) {
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    baseline_ = new CorpusRun(RunCorpus(/*num_shards=*/1));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
  }
  static CorpusRun* baseline_;
};

CorpusRun* ShardEquivalenceTest::baseline_ = nullptr;

TEST_F(ShardEquivalenceTest, BaselineDetectsSomething) {
  EXPECT_FALSE(baseline_->alerts.empty());
  EXPECT_EQ(baseline_->errors, "(no errors)") << baseline_->errors;
}

TEST_F(ShardEquivalenceTest, OneShardShardedEqualsSingleThreaded) {
  // One shard is the inline lane: single-threaded execution over the
  // ordered stream. A second run over a freshly generated corpus (the
  // interner already holds its strings) reproduces the alert sequence,
  // not just the multiset, and every query's stats.
  CorpusRun run = RunCorpus(1);
  EXPECT_EQ(run.alerts, baseline_->alerts);
  EXPECT_EQ(run.events, baseline_->events);
  for (const auto& [name, qs] : baseline_->stats) {
    EXPECT_EQ(run.stats[name].events_in, qs.events_in) << name;
    EXPECT_EQ(run.stats[name].matches, qs.matches) << name;
    EXPECT_EQ(run.stats[name].alerts, qs.alerts) << name;
  }
  EXPECT_EQ(run.errors, "(no errors)") << run.errors;
}

TEST_F(ShardEquivalenceTest, ZeroShardsClampsToOneLane) {
  // num_shards=0 must clamp to one lane (engine and executor agree on the
  // clamp) instead of wiring zero lanes.
  CorpusRun run = RunCorpus(0);
  EXPECT_EQ(run.alerts, baseline_->alerts);
}

TEST_F(ShardEquivalenceTest, TwoShardsSameAlertMultiset) {
  CorpusRun run = RunCorpus(2);
  EXPECT_EQ(AsMultiset(run.alerts), AsMultiset(baseline_->alerts));
  EXPECT_EQ(run.errors, "(no errors)") << run.errors;
}

TEST_F(ShardEquivalenceTest, ThreeShardsSameAlertMultiset) {
  CorpusRun run = RunCorpus(3);
  EXPECT_EQ(AsMultiset(run.alerts), AsMultiset(baseline_->alerts));
}

TEST_F(ShardEquivalenceTest, FourShardsSameAlertMultiset) {
  CorpusRun run = RunCorpus(4);
  EXPECT_EQ(AsMultiset(run.alerts), AsMultiset(baseline_->alerts));
  EXPECT_EQ(run.errors, "(no errors)") << run.errors;
}

TEST_F(ShardEquivalenceTest, ShardedRunIsDeterministic) {
  // Same shard count twice: identical alert *sequence*, not just multiset
  // (the ordered sink sorts by time/query/group/values).
  CorpusRun first = RunCorpus(3);
  CorpusRun second = RunCorpus(3);
  EXPECT_EQ(first.alerts, second.alerts);
}

TEST_F(ShardEquivalenceTest, PerQueryAlertCountsMatchBaseline) {
  CorpusRun run = RunCorpus(4);
  for (const auto& [name, file] : kCorpusQueries) {
    (void)file;
    ASSERT_TRUE(run.stats.count(name)) << name;
    ASSERT_TRUE(baseline_->stats.count(name)) << name;
    EXPECT_EQ(run.stats[name].alerts, baseline_->stats[name].alerts)
        << name;
  }
}

TEST_F(ShardEquivalenceTest, ShardStatsAccountAllEvents) {
  CorpusRun run = RunCorpus(2);
  // Shard lanes together see each input event exactly once; the global
  // lane (hosting the multi-event rule queries) sees each once more.
  EXPECT_EQ(run.events, 2 * baseline_->events);
}

}  // namespace
}  // namespace saql
