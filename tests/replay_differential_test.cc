// Corpus differential for the storage/replay path: the engine's alerts
// over the checked-in query corpus must be bit-identical whether the
// stream comes from memory (VectorEventSource), a log recorded through
// the durable WAL pipeline (pushed batches merged into segments), a v2
// columnar log written directly (mmap'd zero-copy blocks), or a v2 log
// read buffered.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "engine/engine.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"
#include "storage/replayer.h"
#include "stream/event_source.h"
#include "test_util.h"

namespace saql {
namespace {

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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

EventBatch Corpus() {
  EnterpriseSimulator::Options sopts;
  sopts.num_workstations = 2;
  sopts.duration = 15 * kMinute;
  sopts.events_per_host_per_second = 6;
  sopts.attack_offset = 6 * kMinute;
  sopts.include_attack = true;
  sopts.seed = 20200227;
  EnterpriseSimulator sim(sopts);
  return sim.Generate();
}

/// Records `corpus` through the durable pipeline in 257-event batches
/// (chunks that do not line up with segments), the way a recording
/// session writes it.
void RecordDurable(const std::string& path, const EventBatch& corpus) {
  DurableLogWriter w(path, DurableLogWriter::Options());
  for (size_t off = 0; off < corpus.size(); off += 257) {
    ASSERT_TRUE(
        w.Append(corpus.data() + off, std::min<size_t>(257, corpus.size() - off))
            .ok());
  }
  ASSERT_TRUE(w.Close().ok()) << w.status();
}

/// Runs the full corpus over `source`; returns the alert sequence (Run's
/// deterministic output order) plus per-query stats lines.
std::vector<std::string> RunEngineOver(EventSource* source) {
  SaqlEngine engine;
  for (const auto& [name, file] : kCorpusQueries) {
    Status st = engine.AddQuery(testing::ReadQueryFile(file), name);
    EXPECT_TRUE(st.ok()) << name << ": " << st;
  }
  Status st = engine.Run(source);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(engine.errors().ToString(), "(no errors)");
  std::vector<std::string> out;
  for (const Alert& a : engine.alerts()) out.push_back(a.ToString());
  for (const auto& [name, qs] : engine.query_stats()) {
    out.push_back(name + " in=" + std::to_string(qs.events_in) +
                  " matched=" + std::to_string(qs.matches) +
                  " windows=" + std::to_string(qs.windows_closed) +
                  " alerts=" + std::to_string(qs.alerts));
  }
  return out;
}

TEST(ReplayDifferentialTest, AllFormatsBitIdentical) {
  EventBatch corpus = Corpus();
  std::string recorded_path = TempPath("diff_recorded.saqllog");
  std::string v2_path = TempPath("diff_v2.saqllog");
  RecordDurable(recorded_path, corpus);
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 2048;  // several segments over this corpus
  ASSERT_TRUE(WriteColumnarEventLog(v2_path, corpus, wopts).ok());

  VectorEventSource vec(corpus);
  std::vector<std::string> baseline = RunEngineOver(&vec);
  ASSERT_FALSE(baseline.empty());

  StreamReplayer recorded(recorded_path, StreamReplayer::Filter{});
  ASSERT_TRUE(recorded.status().ok());
  EXPECT_EQ(RunEngineOver(&recorded), baseline) << "recorded log";
  EXPECT_EQ(recorded.replayed(), corpus.size());

  StreamReplayer::Filter mmap_filter;
  StreamReplayer v2(v2_path, mmap_filter);
  ASSERT_TRUE(v2.status().ok());
  EXPECT_EQ(RunEngineOver(&v2), baseline) << "v2 mmap";
  EXPECT_EQ(v2.replayed(), corpus.size());

  StreamReplayer::Filter buffered_filter;
  buffered_filter.use_mmap = false;
  StreamReplayer v2b(v2_path, buffered_filter);
  ASSERT_TRUE(v2b.status().ok());
  EXPECT_EQ(RunEngineOver(&v2b), baseline) << "v2 buffered";
}

// The filtered replay paths must agree across write paths too (the host
// filter forces the row-materializing path; the time range exercises the
// segment-skip seek).
TEST(ReplayDifferentialTest, FilteredReplayAgreesAcrossFormats) {
  EventBatch corpus = Corpus();
  std::string recorded_path = TempPath("diff_f_recorded.saqllog");
  std::string v2_path = TempPath("diff_f_v2.saqllog");
  RecordDurable(recorded_path, corpus);
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 512;
  ASSERT_TRUE(WriteColumnarEventLog(v2_path, corpus, wopts).ok());

  StreamReplayer::Filter filter;
  filter.start_ts = corpus.front().ts + 4 * kMinute;
  filter.end_ts = corpus.front().ts + 12 * kMinute;
  filter.hosts = {corpus.front().agent_id};

  auto drain = [](StreamReplayer* r) {
    EventBatch all, batch;
    while (r->NextBatch(777, &batch)) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  };
  StreamReplayer recorded(recorded_path, filter);
  StreamReplayer v2(v2_path, filter);
  ASSERT_TRUE(recorded.status().ok());
  ASSERT_TRUE(v2.status().ok());
  EventBatch from_recorded = drain(&recorded);
  EventBatch from_v2 = drain(&v2);
  ASSERT_FALSE(from_recorded.empty());
  ASSERT_EQ(from_recorded.size(), from_v2.size());
  for (size_t i = 0; i < from_recorded.size(); ++i) {
    EXPECT_EQ(from_recorded[i].id, from_v2[i].id);
    EXPECT_EQ(from_recorded[i].ts, from_v2[i].ts);
    EXPECT_EQ(from_recorded[i].agent_id, from_v2[i].agent_id);
  }
  EXPECT_EQ(recorded.replayed(), v2.replayed());
  EXPECT_EQ(recorded.filtered_out() + recorded.replayed(),
            v2.filtered_out() + v2.replayed());
  // Both sides against the filter applied in memory.
  size_t expected = 0;
  for (const Event& e : corpus) {
    expected += e.ts >= filter.start_ts && e.ts < filter.end_ts &&
                filter.hosts.count(e.agent_id) != 0;
  }
  EXPECT_EQ(from_v2.size(), expected);
}

}  // namespace
}  // namespace saql
