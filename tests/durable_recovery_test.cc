// The durability contract, end to end: a DurableLogWriter run that is
// killed at any point — torn mid-WAL-record, between WAL and segment,
// mid-segment, during WAL deletion or rotation — recovers to a clean
// prefix of the appended stream, with the loss bound set by the sync
// policy:
//
//   always  — no acked event is ever lost (recovered >= acked);
//   group   — loss bounded to the open commit window
//             (durable_seq <= recovered <= acked);
//   none    — durability only at segment/close barriers.
//
// The differential half of the matrix replays each recovered stream
// through the engine and requires the alert sequence to be identical to
// an uncrashed run over the same prefix — recovery must be invisible to
// queries.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"
#include "storage/file_backend.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

// ---------------------------------------------------------------------
// Fixtures.

/// A fresh directory per test: recovery scans the log's directory for
/// WAL files, so tests must not share one.
std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> WalFilesNextTo(const std::string& path) {
  std::filesystem::path base(path);
  std::string prefix = base.filename().string() + ".wal.";
  std::vector<std::string> out;
  for (const auto& e :
       std::filesystem::directory_iterator(base.parent_path())) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) {
      out.push_back(e.path().string());
    }
  }
  return out;
}

/// Deterministic alert-bearing corpus: every event is a network write
/// (one per second), a sprinkle of "%evil.exe" subjects for the
/// stateless query, varied hosts/amounts for the per-minute aggregation.
EventBatch Corpus(size_t n) {
  EventBatch out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool evil = i % 17 == 0;
    out.push_back(
        EventBuilder()
            .Id(i + 1)
            .At(static_cast<Timestamp>(i) * kSecond)
            .OnHost("h" + std::to_string(i % 3))
            .Subject(
                evil ? "evil.exe" : "app" + std::to_string(i % 4) + ".exe",
                100 + static_cast<int>(i % 50))
            .Op(EventOp::kWrite)
            .NetObject("10.0.0." + std::to_string(i % 5), 443)
            .Amount(static_cast<int64_t>((i % 100) * 1000))
            .Build());
  }
  return out;
}

/// `got` must be `corpus[0..got.size())`, field for field.
void ExpectIsCorpusPrefix(const EventBatch& got, const EventBatch& corpus,
                          const std::string& label) {
  ASSERT_LE(got.size(), corpus.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const Event& a = corpus[i];
    const Event& b = got[i];
    ASSERT_EQ(a.id, b.id) << label << " @" << i;
    ASSERT_EQ(a.ts, b.ts) << label << " @" << i;
    ASSERT_EQ(a.agent_id, b.agent_id) << label << " @" << i;
    ASSERT_EQ(a.subject, b.subject) << label << " @" << i;
    ASSERT_EQ(a.op, b.op) << label << " @" << i;
    ASSERT_EQ(a.obj_net, b.obj_net) << label << " @" << i;
    ASSERT_EQ(a.amount, b.amount) << label << " @" << i;
  }
}

constexpr char kExfilQuery[] =
    "proc p[\"%evil.exe\"] write ip i as e return p, i";
constexpr char kSumQuery[] =
    "proc p write ip i as e #time(1 min) "
    "state ss { amt := sum(e.amount) } group by p "
    "alert ss.amt > 0 return p, ss.amt";

/// Runs the two standing queries over `events` — pushed in chunks with
/// the watermark advanced between them — and returns the rendered alerts
/// in emission order.
std::vector<std::string> AlertsFor(const EventBatch& events) {
  SaqlEngine engine;
  EXPECT_TRUE(engine.AddQuery(kExfilQuery, "exfil").ok());
  EXPECT_TRUE(engine.AddQuery(kSumQuery, "sum").ok());
  auto session = engine.OpenSession();
  EXPECT_TRUE(session.ok()) << session.status();
  EventBatch copy = events;  // Push annotates in place
  for (size_t off = 0; off < copy.size(); off += 257) {
    size_t len = std::min<size_t>(257, copy.size() - off);
    EXPECT_TRUE((*session)->Push(copy.data() + off, len).ok());
    EXPECT_TRUE(
        (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  }
  EXPECT_TRUE((*session)->Close().ok());
  std::vector<std::string> out;
  out.reserve(engine.alerts().size());
  for (const Alert& a : engine.alerts()) out.push_back(a.ToString());
  return out;
}

/// Probe: WAL bytes (header + records) for the first `count` events
/// appended `batch` at a time and cut into chunks of `segment_events` —
/// the records `DurableLogWriter::Append` writes — measured on a scratch
/// backend so crash thresholds can target exact record boundaries on the
/// backend under test.
uint64_t WalBytesFor(const EventBatch& events, size_t count,
                     const std::string& dir, size_t batch = 1,
                     size_t segment_events = 4096) {
  FaultInjectionFileBackend probe_fs;
  WalWriter probe(dir + "/probe.walbytes", 1, &probe_fs);
  EventBlock block;
  WalRecord record;
  for (size_t call = 0; call < count; call += batch) {
    const size_t call_end = std::min(count, call + batch);
    for (size_t i = call; i < call_end; i += segment_events) {
      block.Clear();
      for (size_t j = i; j < std::min(call_end, i + segment_events); ++j) {
        block.AppendColumnar(events[j]);
      }
      EncodeWalRecord(i + 1, block, &record);
      EXPECT_TRUE(probe.Append(record).ok());
    }
  }
  return probe_fs.bytes_appended();
}

/// Probe: total columnar-file bytes for the whole corpus at
/// `segment_events` (header + every segment, final partial flushed).
uint64_t ColumnarBytesFor(const EventBatch& events, size_t segment_events,
                          const std::string& dir) {
  FaultInjectionFileBackend probe_fs;
  ColumnarLogWriter::Options copts;
  copts.segment_events = segment_events;
  copts.backend = &probe_fs;
  ColumnarLogWriter probe(dir + "/probe.colbytes", copts);
  EXPECT_TRUE(probe.AppendBatch(events).ok());
  EXPECT_TRUE(probe.Flush().ok());
  return probe_fs.bytes_appended();
}

struct CrashOutcome {
  uint64_t acked = 0;    ///< Appends that returned OK
  uint64_t durable = 0;  ///< writer-reported durable_seq after the dust
};

/// Appends `corpus` `batch` events per call until the scheduled fault
/// kills the pipeline, then closes (which must fail and must leave the
/// WAL files in place).
CrashOutcome WriteUntilCrash(const std::string& path,
                             FaultInjectionFileBackend* fs,
                             DurableLogWriter::Options opts,
                             const EventBatch& corpus, size_t batch = 1) {
  opts.backend = fs;
  DurableLogWriter w(path, opts);
  EXPECT_TRUE(w.status().ok()) << w.status();
  CrashOutcome out;
  for (size_t off = 0; off < corpus.size(); off += batch) {
    const size_t n = std::min(batch, corpus.size() - off);
    if (!w.Append(corpus.data() + off, n).ok()) break;
    out.acked += n;
  }
  w.Close();
  EXPECT_TRUE(fs->crashed()) << path << ": fault never fired";
  EXPECT_FALSE(w.status().ok()) << path;
  out.durable = w.durable_seq();
  return out;
}

// ---------------------------------------------------------------------
// Healthy-path contract.

// A cleanly closed durable log is a pure v2 columnar log under every
// sync policy: identical contents, no WAL files, and recovery on it is
// a no-op (all events from segments, nothing replayed).
TEST(DurableLogTest, CleanCloseLeavesPureColumnarLogUnderEveryPolicy) {
  const EventBatch corpus = Corpus(1500);
  for (const char* policy : {"always", "group:2000:65536", "none"}) {
    std::string dir = TestDir(std::string("durable_clean_") +
                              (policy[0] == 'g' ? "group" : policy));
    std::string path = dir + "/log";
    auto sync = ParseSyncPolicy(policy);
    ASSERT_TRUE(sync.ok()) << policy;

    DurableLogWriter::Options opts;
    opts.sync = *sync;
    opts.segment_events = 256;
    {
      DurableLogWriter w(path, opts);
      ASSERT_TRUE(w.status().ok()) << w.status();
      ASSERT_TRUE(w.AppendBatch(corpus).ok()) << policy;
      EXPECT_EQ(w.appended_events(), corpus.size());
      EXPECT_FALSE(WalFilesNextTo(path).empty()) << policy;
      ASSERT_TRUE(w.Close().ok()) << policy;
      EXPECT_EQ(w.durable_seq(), corpus.size()) << policy;
      EXPECT_EQ(w.events_in_segments(), corpus.size()) << policy;
    }
    EXPECT_TRUE(WalFilesNextTo(path).empty()) << policy;

    auto direct = ReadColumnarEventLog(path);
    ASSERT_TRUE(direct.ok()) << policy << ": " << direct.status();
    ASSERT_EQ(direct->size(), corpus.size()) << policy;
    ExpectIsCorpusPrefix(*direct, corpus, policy);

    auto rec = RecoverDurableLog(path);
    ASSERT_TRUE(rec.ok()) << policy << ": " << rec.status();
    EXPECT_EQ(rec->segment_events, corpus.size()) << policy;
    EXPECT_EQ(rec->wal_events, 0u) << policy;
    EXPECT_TRUE(rec->wal_files.empty()) << policy;
  }
}

TEST(DurableLogTest, SyncAlwaysAcksOnlyDurableEvents) {
  std::string path = TestDir("durable_always") + "/log";
  DurableLogWriter::Options opts;
  opts.sync = ParseSyncPolicy("always").value();
  DurableLogWriter w(path, opts);
  ASSERT_TRUE(w.status().ok());
  const EventBatch corpus = Corpus(100);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(w.Append(corpus[i]).ok());
    // The ack IS the durability barrier: never a gap.
    EXPECT_EQ(w.durable_seq(), w.appended_events()) << "i=" << i;
  }
  EXPECT_TRUE(w.Close().ok());
}

TEST(DurableLogTest, RotationSealsAndRetiresCoveredWalFiles) {
  std::string path = TestDir("durable_rotate") + "/log";
  const EventBatch corpus = Corpus(2000);
  DurableLogWriter::Options opts;
  opts.sync = ParseSyncPolicy("group").value();
  opts.segment_events = 128;
  opts.wal_rotate_bytes = 8 * 1024;
  DurableLogWriter w(path, opts);
  ASSERT_TRUE(w.status().ok());
  ASSERT_TRUE(w.AppendBatch(corpus).ok());
  EXPECT_GE(w.wal_rotations(), 2u);
  ASSERT_TRUE(w.Close().ok());
  // Every WAL file — sealed or live — is spent after a clean close.
  EXPECT_TRUE(WalFilesNextTo(path).empty());
  auto rec = RecoverDurableLog(path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec->events.size(), corpus.size());
  ExpectIsCorpusPrefix(rec->events, corpus, "rotate");
}

// Stale-WAL hygiene: a record path with leftover `.wal.<N>` files is the
// unrecovered tail of a crashed incarnation. Opening a fresh writer over
// it must refuse (the fresh columnar truncate + new WAL sequence would
// silently discard that tail) unless cleanup is forced explicitly.
TEST(DurableLogTest, StaleWalFilesRefuseOpenUnlessForced) {
  std::string path = TestDir("durable_stale_wal") + "/log";
  const EventBatch corpus = Corpus(300);

  // Leave a crashed incarnation behind: sync=always acks everything into
  // the WAL, the pre-segment crash kills the pipeline before segments
  // exist, Close fails and keeps the WAL files.
  FaultInjectionFileBackend fs;
  fs.CrashAtTripPoint(durable_trip::kPreSegment, 1);
  DurableLogWriter::Options opts;
  opts.sync = ParseSyncPolicy("always").value();
  WriteUntilCrash(path, &fs, opts, corpus);
  ASSERT_FALSE(WalFilesNextTo(path).empty());

  // A fresh writer refuses the path.
  DurableLogWriter::Options fresh;
  fresh.sync = ParseSyncPolicy("always").value();
  {
    DurableLogWriter refused(path, fresh);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(refused.Append(corpus[0]).ok() == false);
  }
  // Refusing must not have disturbed the crash evidence: the stale WAL
  // files are still there and still recover the acked prefix.
  ASSERT_FALSE(WalFilesNextTo(path).empty());
  auto rec = RecoverDurableLog(path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectIsCorpusPrefix(rec->events, corpus, "stale-wal-refused");

  // Forcing cleans the stale files up (explicit data loss) and opens a
  // fresh, fully functional log.
  fresh.force_stale_wal = true;
  {
    DurableLogWriter forced(path, fresh);
    ASSERT_TRUE(forced.status().ok()) << forced.status();
    ASSERT_TRUE(forced.Append(corpus[0]).ok());
    ASSERT_TRUE(forced.Close().ok());
  }
  EXPECT_TRUE(WalFilesNextTo(path).empty());
  auto rec2 = RecoverDurableLog(path);
  ASSERT_TRUE(rec2.ok()) << rec2.status();
  ASSERT_EQ(rec2->events.size(), 1u);
}

// The session layer surfaces the stale-WAL refusal as a degraded
// recording (the session still opens and serves queries), and
// `record_force` opts into the cleanup.
TEST(DurableSessionTest, StaleWalDegradesRecordingUnlessForced) {
  std::string path = TestDir("durable_stale_session") + "/log";
  const EventBatch corpus = Corpus(200);
  FaultInjectionFileBackend fs;
  fs.CrashAtTripPoint(durable_trip::kPreSegment, 1);
  DurableLogWriter::Options wopts;
  wopts.sync = ParseSyncPolicy("always").value();
  WriteUntilCrash(path, &fs, wopts, corpus);
  ASSERT_FALSE(WalFilesNextTo(path).empty());

  SaqlEngine::Options opts;
  opts.record_path = path;
  {
    SaqlEngine engine(opts);
    ASSERT_TRUE(engine.AddQuery(kExfilQuery, "exfil").ok());
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_EQ((*session)->recording_status().code(),
              StatusCode::kFailedPrecondition);
    // Queries still served while recording is refused.
    EventBatch copy = Corpus(40);
    ASSERT_TRUE((*session)->Push(copy).ok());
    ASSERT_TRUE((*session)->Close().ok());
    EXPECT_FALSE(engine.alerts().empty());
  }
  ASSERT_FALSE(WalFilesNextTo(path).empty());  // evidence untouched

  opts.record_force = true;
  {
    SaqlEngine engine(opts);
    ASSERT_TRUE(engine.AddQuery(kExfilQuery, "exfil").ok());
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->recording_status().ok());
    EventBatch copy = Corpus(40);
    ASSERT_TRUE((*session)->Push(copy).ok());
    ASSERT_TRUE((*session)->Close().ok());
    EXPECT_TRUE((*session)->recording_status().ok());
  }
  EXPECT_TRUE(WalFilesNextTo(path).empty());
  auto rec = RecoverDurableLog(path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->events.size(), 40u);
}

// ---------------------------------------------------------------------
// The crash matrix (tentpole acceptance): kill the pipeline at every
// trip point under sync=always, recover, and check both halves of the
// contract — no acked event lost, and the recovered stream replays
// through the engine exactly like an uncrashed run over the same prefix.

struct CrashCase {
  std::string name;
  std::function<void(FaultInjectionFileBackend&)> schedule;
  uint64_t wal_rotate_bytes;
  size_t segment_events;
};

TEST(DurableRecoveryTest, CrashMatrixRecoversAckedPrefixAtEveryTripPoint) {
  const EventBatch corpus = Corpus(4000);
  std::string probe_dir = TestDir("durable_matrix_probe");
  // Byte offsets for the byte-precise cases: torn mid-WAL-record (7
  // bytes into record 51) and torn mid-columnar-segment (half the total
  // columnar size — large enough that no 4 KiB-rotated WAL file can
  // reach it first, asserted below).
  const uint64_t torn_wal_at = WalBytesFor(corpus, 50, probe_dir) + 7;
  const uint64_t columnar_bytes = ColumnarBytesFor(corpus, 256, probe_dir);
  ASSERT_GT(columnar_bytes / 2, uint64_t{12 * 1024});

  const std::vector<CrashCase> cases = {
      {"mid-wal-record",
       [&](FaultInjectionFileBackend& fs) {
         fs.CrashAfterBytes(".wal.0", torn_wal_at);
       },
       4u << 20, 256},
      {"pre-segment",
       [](FaultInjectionFileBackend& fs) {
         fs.CrashAtTripPoint(durable_trip::kPreSegment, 3);
       },
       32 * 1024, 256},
      {"mid-segment",
       [&](FaultInjectionFileBackend& fs) {
         fs.CrashAfterBytes("/log", columnar_bytes / 2 + 3);
       },
       4 * 1024, 256},
      {"pre-wal-delete",
       [](FaultInjectionFileBackend& fs) {
         fs.CrashAtTripPoint(durable_trip::kPreWalDelete, 1);
       },
       8 * 1024, 128},
      {"wal-rotate",
       [](FaultInjectionFileBackend& fs) {
         fs.CrashAtTripPoint(durable_trip::kWalRotate, 2);
       },
       8 * 1024, 128},
  };

  for (const CrashCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = TestDir("durable_matrix_" + c.name) + "/log";
    FaultInjectionFileBackend fs;
    c.schedule(fs);

    DurableLogWriter::Options opts;
    opts.sync = ParseSyncPolicy("always").value();
    opts.segment_events = c.segment_events;
    opts.wal_rotate_bytes = c.wal_rotate_bytes;
    opts.queue_capacity = 128;  // force real writer/drainer interleaving
    CrashOutcome crash = WriteUntilCrash(path, &fs, opts, corpus);
    ASSERT_GT(crash.acked, 0u);
    ASSERT_LT(crash.acked, corpus.size());

    // Recovery runs against the real filesystem — exactly what a
    // restarted process would see.
    auto rec = RecoverDurableLog(path);
    ASSERT_TRUE(rec.ok()) << rec.status();
    ExpectIsCorpusPrefix(rec->events, corpus, c.name);

    // sync=always: every acked event survives. (One synced-but-unacked
    // record may survive too — an append whose ack was lost to the
    // crash after its barrier, the classic commit-ack race.)
    EXPECT_GE(rec->events.size(), crash.acked);
    EXPECT_LE(rec->events.size(), crash.acked + 1);
    EXPECT_GE(rec->events.size(), crash.durable);

    // Differential replay: the recovered stream must be
    // indistinguishable from the never-crashed prefix.
    EventBatch prefix(corpus.begin(),
                      corpus.begin() + static_cast<long>(rec->events.size()));
    const std::vector<std::string> want = AlertsFor(prefix);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(AlertsFor(rec->events), want) << c.name;
  }
}

// Under group commit the crash-loss bound is the open commit window:
// everything past the last barrier may vanish, nothing durable may.
TEST(DurableRecoveryTest, GroupCommitLossIsBoundedToTheOpenWindow) {
  const EventBatch corpus = Corpus(3000);
  std::string path = TestDir("durable_group_loss") + "/log";
  FaultInjectionFileBackend fs;
  fs.CrashAtTripPoint(durable_trip::kPreSegment, 2);

  DurableLogWriter::Options opts;
  // A barrier that never fires on its own: 10 s delay, 1 GiB window —
  // the only durability is the drainer's segment fsyncs.
  opts.sync = ParseSyncPolicy("group:10000000:1073741824").value();
  opts.segment_events = 256;
  opts.queue_capacity = 128;
  CrashOutcome crash = WriteUntilCrash(path, &fs, opts, corpus);
  ASSERT_GT(crash.acked, 0u);

  auto rec = RecoverDurableLog(path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectIsCorpusPrefix(rec->events, corpus, "group-loss");
  EXPECT_GE(rec->events.size(), crash.durable);  // durable means durable
  EXPECT_LE(rec->events.size(), crash.acked);    // loss, but only unsynced
}

// CompactRecoveredLog turns a crashed log back into a normal replayable
// artifact: pure v2, WAL files gone, recovery now a no-op.
TEST(DurableRecoveryTest, CompactionRewritesCrashedLogAsPureColumnar) {
  const EventBatch corpus = Corpus(2000);
  std::string path = TestDir("durable_compact") + "/log";
  FaultInjectionFileBackend fs;
  fs.CrashAtTripPoint(durable_trip::kPreSegment, 2);
  DurableLogWriter::Options opts;
  opts.sync = ParseSyncPolicy("always").value();
  opts.segment_events = 128;
  opts.queue_capacity = 64;
  CrashOutcome crash = WriteUntilCrash(path, &fs, opts, corpus);

  auto rec = CompactRecoveredLog(path);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_GE(rec->events.size(), crash.acked);
  EXPECT_GT(rec->wal_events, 0u);  // the WAL tail did some work here
  EXPECT_TRUE(WalFilesNextTo(path).empty());

  auto direct = ReadColumnarEventLog(path);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(direct->size(), rec->events.size());
  ExpectIsCorpusPrefix(*direct, corpus, "compacted");

  auto again = RecoverDurableLog(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segment_events, rec->events.size());
  EXPECT_EQ(again->wal_events, 0u);
}

// The batch write path: `Append(events, n)` writes one WAL record per
// chunk of at most `segment_events`. n = 5000 exceeds `segment_events`
// (4096) and checks the chunking. Per batch size and crash point: a torn
// record drops exactly its chunk, `always` recovers at least the acked
// events and at most the failing call's events more (one chunk when
// n <= segment_events), and the recovered stream alerts exactly like the
// uncrashed prefix.
TEST(DurableRecoveryTest, BatchedAppendCrashMatrix) {
  const EventBatch corpus = Corpus(16000);
  constexpr size_t kSegmentEvents = 4096;
  for (size_t n : {1u, 7u, 256u, 5000u}) {
    // Tear the first record of call `calls` 7 bytes in.
    const size_t calls = std::max<size_t>(2, 500 / n);
    std::string probe_dir = TestDir("durable_batch_probe");
    const uint64_t torn_at =
        WalBytesFor(corpus, calls * n, probe_dir, n, kSegmentEvents) + 7;
    const std::vector<CrashCase> cases = {
        {"torn-record",
         [&](FaultInjectionFileBackend& fs) {
           fs.CrashAfterBytes(".wal.0", torn_at);
         },
         64u << 20, kSegmentEvents},
        {"pre-segment",
         [](FaultInjectionFileBackend& fs) {
           fs.CrashAtTripPoint(durable_trip::kPreSegment, 2);
         },
         64u << 20, kSegmentEvents},
        {"wal-rotate",
         [](FaultInjectionFileBackend& fs) {
           fs.CrashAtTripPoint(durable_trip::kWalRotate, 2);
         },
         64 * 1024, kSegmentEvents},
    };
    for (const CrashCase& c : cases) {
      const std::string label = c.name + " n=" + std::to_string(n);
      SCOPED_TRACE(label);
      std::string path = TestDir("durable_batch_" + c.name) + "/log";
      FaultInjectionFileBackend fs;
      c.schedule(fs);
      DurableLogWriter::Options opts;
      opts.sync = ParseSyncPolicy("always").value();
      opts.segment_events = c.segment_events;
      opts.wal_rotate_bytes = c.wal_rotate_bytes;
      opts.queue_capacity = 128;
      CrashOutcome crash = WriteUntilCrash(path, &fs, opts, corpus, n);
      ASSERT_LT(crash.acked, corpus.size());

      auto rec = RecoverDurableLog(path);
      ASSERT_TRUE(rec.ok()) << rec.status();
      ExpectIsCorpusPrefix(rec->events, corpus, label);
      if (c.name == "torn-record") {
        EXPECT_EQ(crash.acked, calls * n);
        EXPECT_EQ(rec->events.size(), calls * n);
      }
      EXPECT_GE(rec->events.size(), crash.acked);
      EXPECT_LE(rec->events.size(), crash.acked + n);
      EXPECT_GE(rec->events.size(), crash.durable);

      if (rec->events.empty()) continue;
      EventBatch prefix(corpus.begin(),
                        corpus.begin() + static_cast<long>(rec->events.size()));
      EXPECT_EQ(AlertsFor(rec->events), AlertsFor(prefix)) << label;
    }
  }
}

// The drainer merges chunks column by column into the pending segment,
// so segments stay full however small the appends are: 10k events make
// ceil(10k / segment_events) segments for every batch size.
TEST(DurableLogTest, MergedChunksKeepSegmentsFull) {
  const EventBatch corpus = Corpus(10000);
  for (size_t n : {1u, 7u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::string path = TestDir("durable_full_segments") + "/log";
    DurableLogWriter::Options opts;
    opts.sync = ParseSyncPolicy("none").value();
    {
      DurableLogWriter w(path, opts);
      for (size_t off = 0; off < corpus.size(); off += n) {
        ASSERT_TRUE(
            w.Append(corpus.data() + off, std::min(n, corpus.size() - off))
                .ok());
      }
      ASSERT_TRUE(w.Close().ok()) << w.status();
    }
    ColumnarLogReader reader(path);
    ASSERT_TRUE(reader.status().ok()) << reader.status();
    EXPECT_EQ(reader.num_segments(),
              (corpus.size() + opts.segment_events - 1) / opts.segment_events);
    auto direct = ReadColumnarEventLog(path);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_EQ(direct->size(), corpus.size());
    ExpectIsCorpusPrefix(*direct, corpus, "full-segments");
  }
}

// Backpressure admits a whole chunk once the queue is below capacity, so
// a chunk larger than the queue never deadlocks: capacity 1, 256-event
// batches, every policy.
TEST(DurableLogTest, BatchLargerThanQueueCapacityNeverDeadlocks) {
  const EventBatch corpus = Corpus(256 * 20);
  for (const char* policy : {"always", "group", "none"}) {
    SCOPED_TRACE(policy);
    std::string path = TestDir("durable_tiny_queue") + "/log";
    DurableLogWriter::Options opts;
    opts.sync = ParseSyncPolicy(policy).value();
    opts.queue_capacity = 1;
    {
      DurableLogWriter w(path, opts);
      for (size_t off = 0; off < corpus.size(); off += 256) {
        ASSERT_TRUE(w.Append(corpus.data() + off, 256).ok());
      }
      ASSERT_TRUE(w.Close().ok()) << w.status();
      EXPECT_EQ(w.events_in_segments(), corpus.size());
    }
    auto direct = ReadColumnarEventLog(path);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_EQ(direct->size(), corpus.size());
  }
}

// ---------------------------------------------------------------------
// Engine wiring: a recording session persists what it serves, and a
// recording *failure* costs the recording, never the queries.

TEST(DurableSessionTest, RecordingSessionPersistsPushedEvents) {
  const EventBatch corpus = Corpus(12000);
  // Push sizes below, at and above `segment_events` (4096): a whole Push
  // is one recorded batch.
  for (size_t push : {1u, 7u, 256u, 5000u}) {
    const std::string label = "push=" + std::to_string(push);
    SCOPED_TRACE(label);
    const size_t n = push == 1 ? 1200 : corpus.size();
    std::string path = TestDir("session_record") + "/log";
    SaqlEngine::Options opts;
    opts.record_path = path;
    opts.record_sync = ParseSyncPolicy("group").value();
    SaqlEngine engine(opts);
    ASSERT_TRUE(engine.AddQuery(kExfilQuery, "exfil").ok());
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    EventBatch copy(corpus.begin(), corpus.begin() + static_cast<long>(n));
    for (size_t off = 0; off < n; off += push) {
      ASSERT_TRUE(
          (*session)->Push(copy.data() + off, std::min(push, n - off)).ok());
    }
    EXPECT_TRUE((*session)->recording_status().ok());
    EXPECT_EQ((*session)->recorded_events(), n);
    ASSERT_TRUE((*session)->Close().ok());
    EXPECT_EQ((*session)->durable_events(), n);

    // The recording is the stream: replayable, field-identical.
    auto direct = ReadColumnarEventLog(path);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_EQ(direct->size(), n);
    ExpectIsCorpusPrefix(*direct, corpus, label);
    EXPECT_TRUE(WalFilesNextTo(path).empty());
  }
}

TEST(DurableSessionTest, RecordingFailureDegradesGracefully) {
  const EventBatch corpus = Corpus(2000);
  const std::vector<std::string> want = AlertsFor(corpus);
  ASSERT_FALSE(want.empty());

  FaultInjectionFileBackend fs;
  fs.FailAppendsAfterBytes(16 * 1024);  // the disk fills mid-stream
  SaqlEngine::Options opts;
  opts.record_path = TestDir("session_degrade") + "/log";
  opts.record_sync = ParseSyncPolicy("always").value();
  opts.file_backend = &fs;
  SaqlEngine engine(opts);
  ASSERT_TRUE(engine.AddQuery(kExfilQuery, "exfil").ok());
  ASSERT_TRUE(engine.AddQuery(kSumQuery, "sum").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  EventBatch copy = corpus;
  for (size_t off = 0; off < copy.size(); off += 257) {
    size_t len = std::min<size_t>(257, copy.size() - off);
    // Push never fails on a recording error — the session degrades.
    ASSERT_TRUE((*session)->Push(copy.data() + off, len).ok());
    ASSERT_TRUE(
        (*session)->AdvanceWatermark((*session)->max_event_ts()).ok());
  }
  EXPECT_EQ((*session)->recording_status().code(), StatusCode::kIoError);
  EXPECT_LT((*session)->recorded_events(), corpus.size());
  ASSERT_TRUE((*session)->Close().ok());

  // Queries never noticed: the full alert sequence, as if recording
  // were off.
  std::vector<std::string> got;
  got.reserve(engine.alerts().size());
  for (const Alert& a : engine.alerts()) got.push_back(a.ToString());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace saql
