// Write-ahead-log coverage: record round trips, the sync-policy parser,
// torn-tail detection by length and by CRC, corruption (a CRC-valid
// record that does not decode), and the crash-consistent read contract
// the recovery path relies on.

#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/file_backend.h"
#include "storage/log_format.h"
#include "storage/wal.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
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

/// The record for `events[0..n)` starting at `first_seq`.
WalRecord RecordOf(uint64_t first_seq, const Event* events, size_t n) {
  EventBlock block;
  for (size_t i = 0; i < n; ++i) block.AppendColumnar(events[i]);
  WalRecord record;
  EncodeWalRecord(first_seq, block, &record);
  return record;
}

/// Writes one record per event, seqs from 1.
void WritePerEventRecords(const std::string& path, const EventBatch& events) {
  WalWriter w(path, 1);
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(w.Append(RecordOf(1 + i, &events[i], 1)).ok());
  }
  ASSERT_TRUE(w.Close().ok());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SyncPolicyTest, ParsesTheShellFlagGrammar) {
  auto always = ParseSyncPolicy("always");
  ASSERT_TRUE(always.ok());
  EXPECT_EQ(always->mode, SyncMode::kAlways);
  EXPECT_STREQ(always->name(), "always");

  auto none = ParseSyncPolicy("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->mode, SyncMode::kNone);

  auto group = ParseSyncPolicy("group");
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->mode, SyncMode::kGroupCommit);
  EXPECT_EQ(group->max_delay_us, SyncPolicy().max_delay_us);

  auto tuned = ParseSyncPolicy("group:500");
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned->max_delay_us, 500);
  EXPECT_EQ(tuned->max_bytes, SyncPolicy().max_bytes);

  auto full = ParseSyncPolicy("group:1000:4096");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->max_delay_us, 1000);
  EXPECT_EQ(full->max_bytes, 4096u);

  EXPECT_FALSE(ParseSyncPolicy("").ok());
  EXPECT_FALSE(ParseSyncPolicy("sometimes").ok());
  EXPECT_FALSE(ParseSyncPolicy("group:").ok());
  EXPECT_FALSE(ParseSyncPolicy("group:12:").ok());
  EXPECT_FALSE(ParseSyncPolicy("group:12:0").ok());
  EXPECT_FALSE(ParseSyncPolicy("group:12:34:56").ok());
}

TEST(WalTest, RoundTripPreservesSeqAndEvents) {
  std::string path = TempPath("roundtrip.wal.0");
  EventBatch events = SampleEvents();
  {
    WalWriter w(path, /*first_seq=*/7);
    ASSERT_TRUE(w.status().ok()) << w.status();
    ASSERT_TRUE(w.Append(RecordOf(7, events.data(), 2)).ok());
    ASSERT_TRUE(w.Append(RecordOf(9, events.data() + 2, 1)).ok());
    EXPECT_EQ(w.records_written(), 2u);
    EXPECT_TRUE(w.Sync().ok());
    EXPECT_TRUE(w.Close().ok());
  }
  auto records = ReadWal(path);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].first_seq, 7u);
  EXPECT_EQ((*records)[0].count, 2u);
  EXPECT_EQ((*records)[1].first_seq, 9u);
  EXPECT_EQ((*records)[1].last_seq(), 9u);
  EventBatch decoded;
  SegmentPayload payload;
  EventBlock block;
  for (const WalRecord& r : *records) {
    ASSERT_TRUE(BindWalRecord(r, &payload, &block).ok());
    const Event* rows = block.MutableRows();
    decoded.insert(decoded.end(), rows, rows + block.size());
  }
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].id, events[i].id);
    EXPECT_EQ(decoded[i].ts, events[i].ts);
    EXPECT_EQ(decoded[i].agent_id, events[i].agent_id);
    EXPECT_EQ(decoded[i].subject, events[i].subject);
    EXPECT_EQ(decoded[i].op, events[i].op);
    EXPECT_EQ(decoded[i].object_type, events[i].object_type);
    EXPECT_EQ(decoded[i].obj_proc, events[i].obj_proc);
    EXPECT_EQ(decoded[i].obj_file, events[i].obj_file);
    EXPECT_EQ(decoded[i].obj_net, events[i].obj_net);
    EXPECT_EQ(decoded[i].amount, events[i].amount);
  }
}

TEST(WalTest, EmptyWalReadsEmpty) {
  std::string path = TempPath("empty.wal.0");
  WalWriter w(path, 1);
  ASSERT_TRUE(w.status().ok());
  EXPECT_TRUE(w.Close().ok());
  auto records = ReadWal(path);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(WalTest, RejectsNonWalFile) {
  std::string path = TempPath("not_a_wal.bin");
  std::ofstream(path, std::ios::binary) << "definitely not a WAL header";
  EXPECT_FALSE(ReadWal(path).ok());
  EXPECT_FALSE(ReadWal(TempPath("missing.wal.0")).ok());
  // The retired per-event format is not read either.
  std::string v1 = TempPath("retired.wal.0");
  std::ofstream(v1, std::ios::binary) << "SAQLWAL1" << std::string(12, '\0');
  EXPECT_FALSE(ReadWal(v1).ok());
}

// Byte-level truncation (what a crash leaves after losing unsynced
// pages): the reader returns the complete-record prefix, regardless of
// where the cut lands.
TEST(WalTest, TruncatedTailEndsReplayAtLastCompleteRecord) {
  std::string path = TempPath("torn.wal.0");
  EventBatch events = SampleEvents();
  WritePerEventRecords(path, events);
  const std::string data = ReadFile(path);
  // Cut at every byte boundary from "just the header" to "whole file":
  // replay must never fail and never exceed the surviving prefix.
  size_t last_count = 0;
  for (size_t cut = kWalFileHeaderSize; cut <= data.size(); ++cut) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << data.substr(0, cut);
    uint64_t consumed = 0;
    auto records = ReadWal(path, &consumed);
    ASSERT_TRUE(records.ok()) << "cut=" << cut << ": " << records.status();
    EXPECT_GE(records->size(), last_count) << "cut=" << cut;
    EXPECT_LE(consumed, cut) << "cut=" << cut;
    last_count = records->size();
  }
  EXPECT_EQ(last_count, events.size());
}

// A flipped byte in the last record is caught by the CRC and the record
// dropped — the torn-tail rule, not a hard error.
TEST(WalTest, CorruptFinalRecordIsDroppedByCrc) {
  std::string path = TempPath("crc.wal.0");
  EventBatch events = SampleEvents();
  WritePerEventRecords(path, events);
  // Flip a byte near the end (inside the final record's payload).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  auto size = static_cast<long>(f.tellg());
  f.seekp(size - 3);
  f.put('\xff');
  f.close();

  auto records = ReadWal(path);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->size(), events.size() - 1);
}

// WAL writing through the fault backend: a torn mid-record crash leaves
// a file whose replay yields exactly the records fully appended before
// the crash.
TEST(WalTest, InjectedTornWriteReplaysCompletedRecordsOnly) {
  std::string path = TempPath("fault_torn.wal.0");
  FaultInjectionFileBackend fs;
  EventBatch events = SampleEvents();
  // Find the byte size of header + 2 records with a probe file.
  uint64_t two_records;
  {
    WalWriter probe(TempPath("fault_probe.wal.0"), 1, &fs);
    probe.Append(RecordOf(1, &events[0], 1));
    probe.Append(RecordOf(2, &events[1], 1));
    two_records = fs.bytes_appended();
  }
  fs.CrashAfterBytes("fault_torn", two_records + 9);

  WalWriter w(path, 1, &fs);
  ASSERT_TRUE(w.status().ok());
  EXPECT_TRUE(w.Append(RecordOf(1, &events[0], 1)).ok());
  EXPECT_TRUE(w.Append(RecordOf(2, &events[1], 1)).ok());
  EXPECT_FALSE(w.Append(RecordOf(3, &events[2], 1)).ok());  // torn 9 in
  EXPECT_TRUE(fs.crashed());
  w.Close();

  auto records = ReadWal(path);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].first_seq, 1u);
  EXPECT_EQ((*records)[1].first_seq, 2u);
}

// A record that passes its CRC but does not decode was written that way:
// corruption, reported as IoError — never a torn tail that silently drops
// it and every later record. Each case damages the middle record of
// three and recomputes its CRC.
TEST(WalTest, CrcValidUndecodableRecordIsCorruption) {
  std::string path = TempPath("undecodable.wal.0");
  EventBatch events = SampleEvents();
  WritePerEventRecords(path, events);
  const std::string data = ReadFile(path);
  auto u32_at = [&](const std::string& d, size_t at) {
    uint32_t v;
    std::memcpy(&v, d.data() + at, sizeof(v));
    return v;
  };
  const size_t second = kWalFileHeaderSize + kWalRecordHeaderSize +
                        u32_at(data, kWalFileHeaderSize);
  const size_t second_end = second + kWalRecordHeaderSize + u32_at(data, second);
  const size_t payload = second + kWalRecordHeaderSize;
  // A one-event record ends with its 8-padded column section: u64 id and
  // six i64 columns, then the u32 agent code.
  const size_t agent_code_at = second_end - AlignTo8(7 * 8 + 9 * 4 + 3) + 56;

  struct Case {
    std::string name;
    std::function<void(std::string*)> damage;
  };
  const Case cases[] = {
      // The first dictionary entry's length runs past the payload.
      {"dictionary length",
       [&](std::string* d) {
         const uint32_t huge = 1u << 20;
         std::memcpy(d->data() + payload, &huge, sizeof(huge));
       }},
      // A code past the end of the dictionary.
      {"dictionary code",
       [&](std::string* d) {
         const uint32_t code = 1000;
         std::memcpy(d->data() + agent_code_at, &code, sizeof(code));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string bad = data;
    c.damage(&bad);
    const uint32_t crc = Crc32(bad.data() + second + 8, second_end - second - 8);
    std::memcpy(bad.data() + second + 4, &crc, sizeof(crc));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    auto records = ReadWal(path);
    EXPECT_EQ(records.status().code(), StatusCode::kIoError);
  }
}

}  // namespace
}  // namespace saql
