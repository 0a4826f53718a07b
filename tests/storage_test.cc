#include <chrono>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "collect/enterprise_sim.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"
#include "storage/file_backend.h"
#include "storage/replayer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Records `events` the way the shell's `record` does: through the
/// durable pipeline, into a v2 columnar event log.
Status RecordLog(const std::string& path, const EventBatch& events,
                 size_t segment_events = 4096) {
  DurableLogWriter::Options opts;
  opts.segment_events = segment_events;
  DurableLogWriter w(path, opts);
  Status st = w.AppendBatch(events);
  Status closed = w.Close();
  return st.ok() ? closed : st;
}

EventBatch SampleEvents() {
  EventBatch out;
  out.push_back(EventBuilder()
                    .Id(1)
                    .At(10 * kSecond)
                    .OnHost("h1")
                    .Subject("cmd.exe", 42)
                    .Op(EventOp::kStart)
                    .ProcObject("osql.exe", 43)
                    .Build());
  out.push_back(EventBuilder()
                    .Id(2)
                    .At(20 * kSecond)
                    .OnHost("h2")
                    .Subject("sqlservr.exe", 50)
                    .Op(EventOp::kWrite)
                    .FileObject("C:\\MSSQL\\backup1.dmp")
                    .Amount(5000000)
                    .Build());
  out.push_back(EventBuilder()
                    .Id(3)
                    .At(30 * kSecond)
                    .OnHost("h1")
                    .Subject("sbblv.exe", 60)
                    .Op(EventOp::kWrite)
                    .NetObject("66.77.88.129", 443)
                    .Amount(123456)
                    .Build());
  return out;
}

TEST(EventLogTest, RoundTripPreservesAllFields) {
  std::string path = TempPath("roundtrip.saqllog");
  EventBatch original = SampleEvents();
  original[1].failed = true;
  ASSERT_TRUE(RecordLog(path, original).ok());
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const Event& a = original[i];
    const Event& b = (*loaded)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.agent_id, b.agent_id);
    EXPECT_EQ(a.subject, b.subject);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.object_type, b.object_type);
    EXPECT_EQ(a.obj_proc, b.obj_proc);
    EXPECT_EQ(a.obj_file, b.obj_file);
    EXPECT_EQ(a.obj_net, b.obj_net);
    EXPECT_EQ(a.amount, b.amount);
    EXPECT_EQ(a.failed, b.failed);
  }
}

TEST(EventLogTest, EmptyLogReadsEmpty) {
  std::string path = TempPath("empty.saqllog");
  ASSERT_TRUE(RecordLog(path, {}).ok());
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->empty());
}

TEST(EventLogTest, MissingFileFails) {
  EXPECT_EQ(ReadColumnarEventLog("/nonexistent/nope.saqllog").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(RecordLog("/nonexistent/nope.saqllog", SampleEvents()).code(),
            StatusCode::kIoError);
}

// Text and the retired v1 row format are both "not an event log".
TEST(EventLogTest, RejectsNonLogFile) {
  std::string path = TempPath("not_a_log.txt");
  std::ofstream(path) << "hello world, definitely not a SAQL log";
  EXPECT_EQ(ReadColumnarEventLog(path).status().code(), StatusCode::kIoError);
  std::string v1 = TempPath("retired_v1.saqllog");
  std::ofstream(v1, std::ios::binary)
      << "SAQLLOG1" << std::string(4, '\1') << std::string(64, 'x');
  EXPECT_EQ(ReadColumnarEventLog(v1).status().code(), StatusCode::kIoError);
  EXPECT_EQ(StreamReplayer(v1, StreamReplayer::Filter{}).status().code(),
            StatusCode::kIoError);
}

TEST(EventLogTest, TruncatedTailIsCrashConsistent) {
  std::string path = TempPath("truncated.saqllog");
  ASSERT_TRUE(RecordLog(path, SampleEvents(), /*segment_events=*/1).ok());
  // Chop off the last 5 bytes (mid-segment).
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto size = static_cast<long>(in.tellg());
  in.close();
  std::ifstream src(path, std::ios::binary);
  std::string data(static_cast<size_t>(size - 5), '\0');
  src.read(data.data(), size - 5);
  src.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;

  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 2u);  // last segment dropped, others intact
}

// The injected-fault twin of TruncatedTailIsCrashConsistent: a simulated
// power loss mid-append leaves a torn final segment on disk (the
// backend's page-cache model keeps the unsynced prefix of the
// triggering write), and the reader drops exactly that segment.
TEST(EventLogTest, InjectedCrashMidRecordIsCrashConsistent) {
  std::string path = TempPath("crash_midrec.saqllog");
  FaultInjectionFileBackend fs;
  ColumnarLogWriter::Options opts;
  opts.segment_events = 1;
  opts.backend = &fs;
  // Crash once the file holds the header, two full segments, and a few
  // bytes of the third.
  EventBatch events = SampleEvents();
  uint64_t two_segments;
  {
    ColumnarLogWriter probe(TempPath("crash_probe.saqllog"), opts);
    ASSERT_TRUE(probe.Append(events[0]).ok());
    ASSERT_TRUE(probe.Append(events[1]).ok());
    two_segments = fs.bytes_appended();
  }
  fs.CrashAfterBytes("crash_midrec", two_segments + 5);

  ColumnarLogWriter w(path, opts);
  ASSERT_TRUE(w.status().ok());
  EXPECT_TRUE(w.Append(events[0]).ok());
  EXPECT_TRUE(w.Append(events[1]).ok());
  EXPECT_FALSE(w.Append(events[2]).ok());  // the torn write
  EXPECT_TRUE(fs.crashed());
  w.Close();

  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 2u);  // torn segment dropped, others intact
}

// Disk-full through the backend seam: recording reports the failure on
// the append that hit the wall (its WAL write) and stays sticky.
TEST(EventLogTest, DiskFullSurfacesOnFailingAppend) {
  FaultInjectionFileBackend fs;
  fs.FailAppendsAfterBytes(1024);
  DurableLogWriter::Options opts;
  opts.backend = &fs;
  opts.force_stale_wal = true;  // an earlier run's failed WAL stays behind
  DurableLogWriter w(TempPath("full.saqllog"), opts);
  ASSERT_TRUE(w.status().ok());
  Status st;
  EventBatch events = SampleEvents();
  for (int i = 0; i < 100 && st.ok(); ++i) st = w.AppendBatch(events);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(w.Close().code(), StatusCode::kIoError);
}

TEST(EventLogTest, WriterCountsEvents) {
  std::string path = TempPath("count.saqllog");
  DurableLogWriter w(path, DurableLogWriter::Options());
  ASSERT_TRUE(w.status().ok());
  ASSERT_TRUE(w.AppendBatch(SampleEvents()).ok());
  EXPECT_EQ(w.appended_events(), 3u);
  EXPECT_TRUE(w.Close().ok());
  EXPECT_EQ(w.events_in_segments(), 3u);
}

TEST(ReplayerTest, ReplaysEverythingWithoutFilter) {
  std::string path = TempPath("replay_all.saqllog");
  ASSERT_TRUE(RecordLog(path, SampleEvents()).ok());
  StreamReplayer r(path, StreamReplayer::Filter{});
  ASSERT_TRUE(r.status().ok());
  EventBatch batch;
  size_t total = 0;
  while (r.NextBatch(2, &batch)) total += batch.size();
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(r.replayed(), 3u);
  EXPECT_EQ(r.filtered_out(), 0u);
}

TEST(ReplayerTest, HostFilter) {
  std::string path = TempPath("replay_host.saqllog");
  ASSERT_TRUE(RecordLog(path, SampleEvents()).ok());
  StreamReplayer::Filter f;
  f.hosts = {"h1"};
  StreamReplayer r(path, f);
  EventBatch batch;
  size_t total = 0;
  while (r.NextBatch(10, &batch)) {
    for (const Event& e : batch) EXPECT_EQ(e.agent_id, "h1");
    total += batch.size();
  }
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(r.filtered_out(), 1u);
}

TEST(ReplayerTest, TimeRangeFilter) {
  std::string path = TempPath("replay_time.saqllog");
  ASSERT_TRUE(RecordLog(path, SampleEvents()).ok());
  StreamReplayer::Filter f;
  f.start_ts = 15 * kSecond;
  f.end_ts = 25 * kSecond;
  StreamReplayer r(path, f);
  EventBatch batch;
  size_t total = 0;
  while (r.NextBatch(10, &batch)) total += batch.size();
  EXPECT_EQ(total, 1u);  // only the 20s event
}

TEST(ReplayerTest, SimulatorRoundTripThroughLog) {
  // The demo's record/replay loop: simulate, store, replay, compare.
  EnterpriseSimulator::Options opts;
  opts.num_workstations = 1;
  opts.duration = kMinute;
  opts.events_per_host_per_second = 5;
  EnterpriseSimulator sim(opts);
  EventBatch events = sim.Generate();
  std::string path = TempPath("sim_roundtrip.saqllog");
  ASSERT_TRUE(RecordLog(path, events).ok());
  StreamReplayer r(path, StreamReplayer::Filter{});
  EventBatch batch, all;
  while (r.NextBatch(512, &batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(all.size(), events.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, events[i].id);
    EXPECT_EQ(all[i].ts, events[i].ts);
  }
}

TEST(ReplayerTest, PacedReplayTakesWallTime) {
  // 2 events 1 second of event time apart at 20x speed: >= ~50ms wall.
  std::string path = TempPath("paced.saqllog");
  EventBatch events;
  events.push_back(
      EventBuilder().Id(1).At(0).OnHost("h").Subject("p").Build());
  events.push_back(EventBuilder()
                       .Id(2)
                       .At(kSecond)
                       .OnHost("h")
                       .Subject("p")
                       .Build());
  ASSERT_TRUE(RecordLog(path, events).ok());
  StreamReplayer::Filter f;
  f.speed = 20.0;
  StreamReplayer r(path, f);
  auto start = std::chrono::steady_clock::now();
  EventBatch batch;
  while (r.NextBatch(10, &batch)) {
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 45);
}

}  // namespace
}  // namespace saql
