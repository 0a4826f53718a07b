// Format v2 (columnar segments) coverage: exact round trips including a
// randomized property corpus (empty attributes, all object types),
// crash-consistent truncation recovery at segment granularity, CRC
// corruption detection, time-range seeks over the segment index, and the
// writer's destruction-path flush semantics.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "storage/columnar_log.h"
#include "storage/log_format.h"
#include "storage/replayer.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameEvents(const EventBatch& a, const EventBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].agent_id, b[i].agent_id);
    EXPECT_EQ(a[i].subject, b[i].subject);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].object_type, b[i].object_type);
    EXPECT_EQ(a[i].obj_proc, b[i].obj_proc);
    EXPECT_EQ(a[i].obj_file, b[i].obj_file);
    EXPECT_EQ(a[i].obj_net, b[i].obj_net);
    EXPECT_EQ(a[i].amount, b[i].amount);
    EXPECT_EQ(a[i].failed, b[i].failed);
  }
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

/// Random event mix: every object type, occasional empty strings (empty
/// agent, empty user, empty path), failures, and repeated spellings so
/// dictionaries actually dedup.
EventBatch RandomCorpus(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  EventBatch out;
  out.reserve(n);
  Timestamp ts = 0;
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i + 1;
    ts += pick(0, 3) * kSecond;  // repeated and advancing timestamps
    e.ts = ts;
    e.agent_id = pick(0, 9) == 0 ? "" : "host-" + std::to_string(pick(0, 3));
    e.subject.pid = pick(1, 500);
    e.subject.exe_name = "Proc" + std::to_string(pick(0, 5)) + ".EXE";
    e.subject.user = pick(0, 7) == 0 ? "" : "user" + std::to_string(pick(0, 2));
    e.op = static_cast<EventOp>(pick(0, kNumEventOps - 1));
    switch (pick(0, 2)) {
      case 0:
        e.object_type = EntityType::kProcess;
        e.obj_proc.pid = pick(1, 500);
        e.obj_proc.exe_name = "child" + std::to_string(pick(0, 4));
        e.obj_proc.user = "svc";
        break;
      case 1:
        e.object_type = EntityType::kFile;
        e.obj_file.path =
            pick(0, 9) == 0 ? "" : "/var/data/f" + std::to_string(pick(0, 9));
        break;
      default:
        e.object_type = EntityType::kNetwork;
        e.obj_net.src_ip = "10.0.0." + std::to_string(pick(1, 9));
        e.obj_net.dst_ip = "192.168.1." + std::to_string(pick(1, 9));
        e.obj_net.src_port = pick(1024, 65535);
        e.obj_net.dst_port = pick(1, 1023);
        e.obj_net.protocol = pick(0, 1) ? "tcp" : "udp";
        break;
    }
    e.amount = pick(0, 1000000);
    e.failed = pick(0, 9) == 0;
    out.push_back(std::move(e));
  }
  return out;
}

TEST(ColumnarLogTest, RoundTripPreservesAllFields) {
  std::string path = TempPath("v2_roundtrip.saqllog");
  EventBatch original = SampleEvents();
  ASSERT_TRUE(WriteColumnarEventLog(path, original).ok());
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameEvents(original, *loaded);
}

TEST(ColumnarLogTest, EmptyLogReadsEmpty) {
  std::string path = TempPath("v2_empty.saqllog");
  ASSERT_TRUE(WriteColumnarEventLog(path, {}).ok());
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->empty());
}

TEST(ColumnarLogTest, MissingFileFails) {
  EXPECT_EQ(ReadColumnarEventLog("/nonexistent/nope.saqllog").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(StreamReplayer("/nonexistent/nope.saqllog", {}).status().code(),
            StatusCode::kIoError);
}

TEST(ColumnarLogTest, RejectsNonLogFile) {
  std::string path = TempPath("v2_not_a_log.txt");
  std::ofstream(path) << "hello world, definitely not a SAQL log";
  EXPECT_EQ(ReadColumnarEventLog(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(StreamReplayer(path, {}).status().code(), StatusCode::kIoError);
}

// The reader's header check is the one format guard: a v2 magic with a
// version it does not know, and a file too short to hold the 16-byte
// header, are both refused, by the whole-log read and by the replayer in
// either read mode.
TEST(ColumnarLogTest, RejectsWrongVersionAndShortHeader) {
  std::string wrong_version = TempPath("v2_wrong_version.saqllog");
  ASSERT_TRUE(WriteColumnarEventLog(wrong_version, SampleEvents()).ok());
  {
    std::fstream f(wrong_version,
                   std::ios::binary | std::ios::in | std::ios::out);
    const uint32_t version = 3;
    f.seekp(sizeof(kLogMagicV2));
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  std::string short_header = TempPath("v2_short_header.saqllog");
  std::ofstream(short_header, std::ios::binary) << "SAQLLOG2" << "xy";
  ASSERT_EQ(std::filesystem::file_size(short_header), 10u);

  for (const std::string& path : {wrong_version, short_header}) {
    EXPECT_EQ(ReadColumnarEventLog(path).status().code(),
              StatusCode::kIoError)
        << path;
    for (bool use_mmap : {true, false}) {
      StreamReplayer::Filter filter;
      filter.use_mmap = use_mmap;
      EXPECT_EQ(StreamReplayer(path, filter).status().code(),
                StatusCode::kIoError)
          << path << " use_mmap=" << use_mmap;
    }
  }
}

// Round-trip property: random corpora, multiple segment sizes (forcing
// multi-segment logs and partial tail segments), both read modes.
TEST(ColumnarLogTest, RoundTripPropertyRandomCorpora) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventBatch original = RandomCorpus(seed, 50 + seed * 37);
    for (size_t segment_events : {7u, 64u, 100000u}) {
      std::string path = TempPath("v2_prop.saqllog");
      ColumnarLogWriter::Options wopts;
      wopts.segment_events = segment_events;
      ASSERT_TRUE(WriteColumnarEventLog(path, original, wopts).ok());
      for (bool use_mmap : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " seg " +
                     std::to_string(segment_events) +
                     (use_mmap ? " mmap" : " buffered"));
        ColumnarLogReader::Options ropts;
        ropts.use_mmap = use_mmap;
        ColumnarLogReader reader(path, ropts);
        ASSERT_TRUE(reader.status().ok()) << reader.status();
        EXPECT_EQ(reader.total_events(), original.size());
        EventBatch loaded;
        EventBlock block;
        for (size_t i = 0; i < reader.num_segments(); ++i) {
          ASSERT_TRUE(reader.ReadSegment(i, &block).ok());
          const Event* rows = block.MutableRows();
          loaded.insert(loaded.end(), rows, rows + block.size());
        }
        ExpectSameEvents(original, loaded);
      }
    }
  }
}

// Truncating mid-segment recovers to the last complete segment — the
// crash-consistent tail rule at segment granularity.
TEST(ColumnarLogTest, TruncationMidSegmentStopsAtLastCompleteSegment) {
  std::string path = TempPath("v2_truncate.saqllog");
  EventBatch original = RandomCorpus(7, 96);
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 32;  // 3 segments
  ASSERT_TRUE(WriteColumnarEventLog(path, original, wopts).ok());

  ColumnarLogReader probe(path);
  ASSERT_TRUE(probe.status().ok());
  ASSERT_EQ(probe.num_segments(), 3u);
  // Cut into the middle of the last segment's payload, then into its
  // header: both recover 2 segments (64 events). Cutting into the second
  // segment leaves 1.
  struct Case {
    uint64_t keep_bytes;
    size_t segments;
  } cases[] = {
      {probe.segment(2).payload_offset + probe.segment(2).payload_bytes / 2,
       2},
      {probe.segment(2).payload_offset - sizeof(SegmentHeader) / 2, 2},
      {probe.segment(1).payload_offset + 5, 1},
  };
  std::ifstream src(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(src)),
                   std::istreambuf_iterator<char>());
  src.close();
  for (const Case& c : cases) {
    SCOPED_TRACE("keep " + std::to_string(c.keep_bytes));
    std::string cut = TempPath("v2_truncate_cut.saqllog");
    std::ofstream(cut, std::ios::binary | std::ios::trunc)
        << full.substr(0, c.keep_bytes);
    ColumnarLogReader reader(cut);
    ASSERT_TRUE(reader.status().ok()) << reader.status();
    EXPECT_EQ(reader.num_segments(), c.segments);
    Result<EventBatch> loaded = ReadColumnarEventLog(cut);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->size(), c.segments * 32);
    for (size_t i = 0; i < loaded->size(); ++i) {
      EXPECT_EQ((*loaded)[i].id, original[i].id);
    }
  }
}

// A bounds-complete segment with a flipped payload byte is corruption,
// not truncation: the CRC fails the read.
TEST(ColumnarLogTest, CrcMismatchIsAnError) {
  std::string path = TempPath("v2_crc.saqllog");
  EventBatch original = RandomCorpus(11, 64);
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 32;
  ASSERT_TRUE(WriteColumnarEventLog(path, original, wopts).ok());
  ColumnarLogReader probe(path);
  ASSERT_TRUE(probe.status().ok());
  uint64_t flip_at = probe.segment(0).payload_offset +
                     probe.segment(0).payload_bytes / 2;
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(flip_at));
  char b = static_cast<char>(f.get());
  f.seekp(static_cast<std::streamoff>(flip_at));
  f.put(static_cast<char>(b ^ 0x5A));
  f.close();
  EXPECT_EQ(ReadColumnarEventLog(path).status().code(),
            StatusCode::kIoError);
}

TEST(ColumnarLogTest, SegmentIndexSupportsTimeRangeSeek) {
  std::string path = TempPath("v2_seek.saqllog");
  EventBatch events;
  for (int i = 0; i < 90; ++i) {
    events.push_back(EventBuilder()
                         .Id(static_cast<uint64_t>(i + 1))
                         .At(i * kSecond)
                         .OnHost("h")
                         .Subject("p")
                         .FileObject("/f")
                         .Build());
  }
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 30;  // segments cover [0,29], [30,59], [60,89] s
  ASSERT_TRUE(WriteColumnarEventLog(path, events, wopts).ok());
  ColumnarLogReader reader(path);
  ASSERT_TRUE(reader.status().ok());
  ASSERT_EQ(reader.num_segments(), 3u);
  EXPECT_EQ(reader.FirstSegmentAtOrAfter(0), 0u);
  EXPECT_EQ(reader.FirstSegmentAtOrAfter(29 * kSecond), 0u);
  EXPECT_EQ(reader.FirstSegmentAtOrAfter(30 * kSecond), 1u);
  EXPECT_EQ(reader.FirstSegmentAtOrAfter(65 * kSecond), 2u);
  EXPECT_EQ(reader.FirstSegmentAtOrAfter(90 * kSecond), 3u);
  EXPECT_EQ(reader.segment(1).min_ts, 30 * kSecond);
  EXPECT_EQ(reader.segment(1).max_ts, 59 * kSecond);
}

// WriteBlock is the block-native write path (log rewrite/compaction):
// whole columnar blocks read from one log serialize directly as segments
// of another — including borrowed (reader-bound) blocks — while pending
// rows flush first so order is preserved; small/row-backed blocks fold
// into the pending segment.
TEST(ColumnarLogTest, WriteBlockRewritesLogsSegmentDirect) {
  EventBatch original = RandomCorpus(21, 96);
  std::string src_path = TempPath("v2_rewrite_src.saqllog");
  std::string dst_path = TempPath("v2_rewrite_dst.saqllog");
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 32;
  ASSERT_TRUE(WriteColumnarEventLog(src_path, original, wopts).ok());

  ColumnarLogReader reader(src_path);
  ASSERT_TRUE(reader.status().ok());
  ColumnarLogWriter writer(dst_path, wopts);
  // A couple of row-backed events first: they land in the pending
  // segment and must be flushed ahead of the first direct segment.
  EventBatch head = {original[0], original[1]};
  EventBlock row_block;
  row_block.ResetBorrowedRows(head.data(), head.size());
  ASSERT_TRUE(writer.WriteBlock(&row_block).ok());
  EventBlock block;
  for (size_t i = 0; i < reader.num_segments(); ++i) {
    ASSERT_TRUE(reader.ReadSegment(i, &block).ok());
    ASSERT_TRUE(writer.WriteBlock(&block).ok());  // direct: 32 >= threshold
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.events_written(), original.size() + 2);
  // 1 flushed pending (the 2 head rows) + 3 direct segments.
  EXPECT_EQ(writer.segments_written(), 4u);

  Result<EventBatch> loaded = ReadColumnarEventLog(dst_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EventBatch expected = head;
  expected.insert(expected.end(), original.begin(), original.end());
  ExpectSameEvents(expected, *loaded);
}

// Blocks smaller than a segment merge column by column into the pending
// segment, which is cut at the threshold: every segment but the last is
// full, and every field (empty strings, all object types, remapped
// dictionary codes) survives the merge.
TEST(ColumnarLogTest, WriteBlockMergesSmallBlocksIntoFullSegments) {
  EventBatch original = RandomCorpus(23, 300);
  std::string src_path = TempPath("v2_merge_src.saqllog");
  std::string dst_path = TempPath("v2_merge_dst.saqllog");
  ColumnarLogWriter::Options src_opts;
  src_opts.segment_events = 7;
  ASSERT_TRUE(WriteColumnarEventLog(src_path, original, src_opts).ok());

  ColumnarLogReader reader(src_path);
  ASSERT_TRUE(reader.status().ok());
  ColumnarLogWriter::Options dst_opts;
  dst_opts.segment_events = 32;
  ColumnarLogWriter writer(dst_path, dst_opts);
  EventBlock block;
  for (size_t i = 0; i < reader.num_segments(); ++i) {
    ASSERT_TRUE(reader.ReadSegment(i, &block).ok());
    ASSERT_TRUE(writer.WriteBlock(&block).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.segments_written(), (original.size() + 31) / 32);

  ColumnarLogReader merged(dst_path);
  ASSERT_TRUE(merged.status().ok());
  for (size_t i = 0; i + 1 < merged.num_segments(); ++i) {
    EXPECT_EQ(merged.segment(i).count, 32u) << "segment " << i;
  }
  Result<EventBatch> loaded = ReadColumnarEventLog(dst_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameEvents(original, *loaded);
}

TEST(ColumnarLogTest, WriterCountsEventsAndSegments) {
  std::string path = TempPath("v2_counts.saqllog");
  ColumnarLogWriter::Options wopts;
  wopts.segment_events = 2;
  ColumnarLogWriter w(path, wopts);
  ASSERT_TRUE(w.status().ok());
  ASSERT_TRUE(w.AppendBatch(SampleEvents()).ok());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_EQ(w.events_written(), 3u);
  EXPECT_EQ(w.segments_written(), 2u);  // 2 + the flushed partial 1
}

// The destructor closes: a writer dropped without Close must still have
// flushed its pending partial segment to disk.
TEST(ColumnarLogTest, DestructorFlushesPendingSegment) {
  std::string path = TempPath("v2_dtor.saqllog");
  EventBatch original = SampleEvents();
  {
    ColumnarLogWriter w(path);  // segment_events = 4096: all pending
    ASSERT_TRUE(w.AppendBatch(original).ok());
    // No Close(): destruction must flush.
  }
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameEvents(original, *loaded);
}

// Flush failures surface through status() instead of being swallowed
// (the destructor runs the same Close). Disk-full is injected through
// the FileBackend seam — deterministic everywhere, unlike the old
// /dev/full fixture, and exercising exactly the path production errors
// take.
TEST(ColumnarLogTest, FlushFailureOnFullDiskSurfacesInStatus) {
  FaultInjectionFileBackend fs;
  fs.FailAppendsAfterBytes(8 * 1024);
  ColumnarLogWriter::Options opts;
  opts.backend = &fs;
  ColumnarLogWriter w(TempPath("full_disk_v2.log"), opts);
  ASSERT_TRUE(w.status().ok()) << w.status();
  EventBatch events = SampleEvents();
  for (int i = 0; i < 2000; ++i) w.AppendBatch(events);
  EXPECT_FALSE(w.Close().ok());
  EXPECT_EQ(w.status().code(), StatusCode::kIoError);
  // Idempotent: a later (destructor-path) Close keeps the error.
  EXPECT_EQ(w.Close().code(), StatusCode::kIoError);
}

// A writer hitting the wall mid-stream keeps every complete segment it
// managed to write: the reader recovers the prefix, not nothing.
TEST(ColumnarLogTest, FullDiskKeepsCompleteSegmentPrefixReadable) {
  FaultInjectionFileBackend fs;
  fs.FailAppendsAfterBytes(64 * 1024);
  EventBatch original = RandomCorpus(11, 4000);
  std::string path = TempPath("full_disk_prefix.log");
  ColumnarLogWriter::Options opts;
  opts.segment_events = 256;
  opts.backend = &fs;
  ColumnarLogWriter w(path, opts);
  uint64_t accepted = 0;
  for (const Event& e : original) {
    if (!w.Append(e).ok()) break;
    ++accepted;
  }
  EXPECT_LT(accepted, original.size());  // the wall was actually hit
  uint64_t in_segments = w.events_written();
  w.Close();
  Result<EventBatch> loaded = ReadColumnarEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), in_segments);
  ExpectSameEvents(
      EventBatch(original.begin(), original.begin() + in_segments),
      *loaded);
}

}  // namespace
}  // namespace saql
