// EventBlock's owned dictionary: codes in first-seen order from one flat
// code table over a chunked char arena. Every case round-trips through a
// WAL record, a golden CRC pins the encoded bytes of a simulator corpus,
// and re-encoding already-seen spellings into a cleared block must not
// allocate.

#include "core/event_block.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "collect/enterprise_sim.h"
#include "storage/log_format.h"
#include "storage/wal.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

Event FileWrite(int64_t id, const std::string& exe, const std::string& path) {
  return EventBuilder()
      .Id(static_cast<uint64_t>(id))
      .At(id * kSecond)
      .OnHost("h1")
      .Subject(exe, 100 + id)
      .Op(EventOp::kWrite)
      .FileObject(path)
      .Build();
}

void ExpectSameEvent(const Event& got, const Event& want, size_t i) {
  EXPECT_EQ(got.id, want.id) << i;
  EXPECT_EQ(got.ts, want.ts) << i;
  EXPECT_EQ(got.agent_id, want.agent_id) << i;
  EXPECT_EQ(got.subject, want.subject) << i;
  EXPECT_EQ(got.op, want.op) << i;
  EXPECT_EQ(got.object_type, want.object_type) << i;
  EXPECT_EQ(got.obj_proc, want.obj_proc) << i;
  EXPECT_EQ(got.obj_file, want.obj_file) << i;
  EXPECT_EQ(got.obj_net, want.obj_net) << i;
  EXPECT_EQ(got.amount, want.amount) << i;
  EXPECT_EQ(got.failed, want.failed) << i;
}

/// Encodes `block` as a WAL record, binds it back, and checks the decoded
/// rows and dictionary against `want` and `block`'s own dictionary.
void ExpectRoundTrip(const EventBlock& block, const EventBatch& want) {
  WalRecord record;
  EncodeWalRecord(1, block, &record);
  SegmentPayload payload;
  EventBlock bound;
  ASSERT_TRUE(BindWalRecord(record, &payload, &bound).ok());
  ASSERT_EQ(bound.size(), want.size());
  ASSERT_EQ(bound.dict_size(), block.dict_size());
  for (size_t i = 0; i < block.dict_size(); ++i) {
    EXPECT_EQ(bound.dict()[i], block.dict()[i]) << i;
  }
  const Event* rows = bound.MutableRows();
  for (size_t i = 0; i < want.size(); ++i) ExpectSameEvent(rows[i], want[i], i);
}

EventBatch SimulatedCorpus() {
  EnterpriseSimulator::Options opts;
  opts.duration = 3 * kMinute;
  opts.attack_offset = 1 * kMinute;
  opts.seed = 7;
  return EnterpriseSimulator(opts).Generate();
}

TEST(EventBlockTest, EmptyStringIsCodeZero) {
  Event e = FileWrite(1, "cmd.exe", "C:\\x.txt");
  e.subject.user.clear();
  EventBlock block;
  block.AppendColumnar(e);
  ASSERT_GE(block.dict_size(), 1u);
  EXPECT_EQ(block.dict()[EventBlock::kEmptyCode], "");
  const EventBlock::Columns& c = block.columns();
  EXPECT_EQ(c.subj_user[0], EventBlock::kEmptyCode);
  EXPECT_EQ(c.obj_exe[0], EventBlock::kEmptyCode);
  EXPECT_NE(c.subj_exe[0], EventBlock::kEmptyCode);
  for (size_t i = 1; i < block.dict_size(); ++i) {
    EXPECT_FALSE(block.dict()[i].empty()) << i;
  }
  ExpectRoundTrip(block, {e});
}

TEST(EventBlockTest, CaseVariantsGetDistinctCodes) {
  const EventBatch events = {FileWrite(1, "Chrome.exe", "/a"),
                             FileWrite(2, "chrome.exe", "/A"),
                             FileWrite(3, "Chrome.exe", "/a"),
                             FileWrite(4, "CHROME.EXE", "/a")};
  EventBlock block;
  for (const Event& e : events) block.AppendColumnar(e);
  const EventBlock::Columns& c = block.columns();
  EXPECT_NE(c.subj_exe[0], c.subj_exe[1]);
  EXPECT_EQ(c.subj_exe[0], c.subj_exe[2]);
  EXPECT_NE(c.subj_exe[3], c.subj_exe[0]);
  EXPECT_NE(c.subj_exe[3], c.subj_exe[1]);
  EXPECT_NE(c.obj_path[0], c.obj_path[1]);
  EXPECT_EQ(block.dict()[c.subj_exe[0]], "Chrome.exe");
  EXPECT_EQ(block.dict()[c.subj_exe[1]], "chrome.exe");
  EXPECT_EQ(block.dict()[c.subj_exe[3]], "CHROME.EXE");
  ExpectRoundTrip(block, events);
}

TEST(EventBlockTest, ManySpellingsGrowTheTableAndKeepFirstSeenOrder) {
  // Far more spellings than a first-size table holds: the table grows
  // several times, and codes still follow first sight.
  EventBatch events;
  for (int i = 0; i < 600; ++i) {
    events.push_back(FileWrite(i, "p" + std::to_string(i % 7) + ".exe",
                               "/data/file_" + std::to_string(i)));
  }
  EventBlock block;
  for (const Event& e : events) block.AppendColumnar(e);
  const EventBlock::Columns& c = block.columns();
  std::vector<std::string> first_seen = {""};
  auto note = [&first_seen](const std::string& s) {
    if (s.empty()) return;
    for (const std::string& seen : first_seen) {
      if (seen == s) return;
    }
    first_seen.push_back(s);
  };
  for (const Event& e : events) {
    note(e.agent_id);
    note(e.subject.exe_name);
    note(e.subject.user);
    note(e.obj_proc.exe_name);
    note(e.obj_proc.user);
    note(e.obj_file.path);
    note(e.obj_net.src_ip);
    note(e.obj_net.dst_ip);
    note(e.obj_net.protocol);
  }
  ASSERT_EQ(block.dict_size(), first_seen.size());
  for (size_t i = 0; i < first_seen.size(); ++i) {
    EXPECT_EQ(block.dict()[i], first_seen[i]) << i;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(block.dict()[c.obj_path[i]], events[i].obj_file.path) << i;
  }
  // Seen spellings hit: appending the events again adds no entry.
  for (const Event& e : events) block.AppendColumnar(e);
  EXPECT_EQ(block.dict_size(), first_seen.size());
  EventBatch twice = events;
  twice.insert(twice.end(), events.begin(), events.end());
  ExpectRoundTrip(block, twice);
}

TEST(EventBlockTest, SpellingLongerThanAnArenaChunk) {
  const std::string huge(3 * EventBlock::kDictChunkBytes + 5, 'q');
  const std::string big(EventBlock::kDictChunkBytes - 3, 'r');
  const EventBatch events = {
      FileWrite(1, "a.exe", "/short"), FileWrite(2, "b.exe", huge),
      FileWrite(3, "c.exe", big), FileWrite(4, "d.exe", huge + "x"),
      FileWrite(5, "a.exe", huge)};
  EventBlock block;
  for (const Event& e : events) block.AppendColumnar(e);
  const EventBlock::Columns& c = block.columns();
  EXPECT_EQ(c.obj_path[1], c.obj_path[4]);
  EXPECT_EQ(block.dict()[c.obj_path[1]], huge);
  EXPECT_EQ(block.dict()[c.obj_path[2]], big);
  EXPECT_EQ(block.dict()[c.obj_path[3]], huge + "x");
  EXPECT_EQ(block.dict()[c.obj_path[0]], "/short");
  ExpectRoundTrip(block, events);

  // Reused after Clear, in another order: the views stay exact.
  block.Clear();
  const EventBatch reversed(events.rbegin(), events.rend());
  for (const Event& e : reversed) block.AppendColumnar(e);
  ExpectRoundTrip(block, reversed);
}

TEST(EventBlockTest, AppendColumnsRemapsAnotherDictionary) {
  const EventBatch first = {FileWrite(1, "x.exe", "/one"),
                            FileWrite(2, "y.exe", "/two")};
  const EventBatch second = {FileWrite(3, "z.exe", "/two"),
                             FileWrite(4, "y.exe", "/three"),
                             FileWrite(5, "X.exe", "/one"),
                             FileWrite(6, "x.exe", "/four")};
  EventBlock src;
  for (const Event& e : second) src.AppendColumnar(e);
  EventBlock dst;
  for (const Event& e : first) dst.AppendColumnar(e);
  dst.AppendColumns(src, 1, 3);  // events 4..6
  EventBatch want = first;
  want.insert(want.end(), second.begin() + 1, second.end());
  ASSERT_EQ(dst.size(), want.size());
  // "z.exe" (only in the skipped event) never enters dst's dictionary.
  for (size_t i = 0; i < dst.dict_size(); ++i) {
    EXPECT_NE(dst.dict()[i], "z.exe") << i;
  }
  const EventBlock::Columns& c = dst.columns();
  EXPECT_EQ(c.subj_exe[1], c.subj_exe[2]);  // y.exe shares its code
  EXPECT_EQ(c.subj_exe[0], c.subj_exe[4]);  // x.exe too
  EXPECT_NE(c.subj_exe[3], c.subj_exe[0]);  // X.exe does not
  EXPECT_EQ(c.obj_path[0], c.obj_path[3]);
  ExpectRoundTrip(dst, want);
}

TEST(EventBlockTest, WalRecordsOfSimulatedCorpusMatchGoldenCrc) {
  // The encoded bytes of every 256-event chunk, concatenated. The constant
  // pins the record format and the first-seen code order; it holds for the
  // simulator's corpus under libstdc++'s random distributions.
  const EventBatch corpus = SimulatedCorpus();
  ASSERT_GT(corpus.size(), 1000u);
  EventBlock block;
  WalRecord record;
  std::string all;
  uint64_t seq = 1;
  for (size_t off = 0; off < corpus.size(); off += 256) {
    const size_t n = std::min<size_t>(256, corpus.size() - off);
    block.Clear();
    for (size_t i = 0; i < n; ++i) block.AppendColumnar(corpus[off + i]);
    EncodeWalRecord(seq, block, &record);
    all += record.bytes;
    seq += n;
  }
  EXPECT_EQ(corpus.size(), 28893u);
  EXPECT_EQ(Crc32(all.data(), all.size()), 0x6822A446u);
}

TEST(EventBlockTest, ReencodingSeenSpellingsDoesNotAllocate) {
  const EventBatch corpus = SimulatedCorpus();
  ASSERT_GE(corpus.size(), 256u);
  EventBlock block;
  for (size_t i = 0; i < 256; ++i) block.AppendColumnar(corpus[i]);
  const size_t dict_size = block.dict_size();

  block.Clear();
  const size_t before = testing::HeapAllocs();
  for (size_t i = 0; i < 256; ++i) block.AppendColumnar(corpus[i]);
  const size_t allocs = testing::HeapAllocs() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(block.dict_size(), dict_size);
  ExpectRoundTrip(block, EventBatch(corpus.begin(), corpus.begin() + 256));
}

/// Every column of `a` and `b`, cell by cell.
void ExpectSameColumns(const EventBlock& a, const EventBlock& b) {
  ASSERT_EQ(a.size(), b.size());
  const EventBlock::Columns& x = a.columns();
  const EventBlock::Columns& y = b.columns();
  auto same = [&](const auto* p, const auto* q, const char* name) {
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(p[i], q[i]) << name << " row " << i;
    }
  };
  same(x.id, y.id, "id");
  same(x.ts, y.ts, "ts");
  same(x.subj_pid, y.subj_pid, "subj_pid");
  same(x.obj_pid, y.obj_pid, "obj_pid");
  same(x.src_port, y.src_port, "src_port");
  same(x.dst_port, y.dst_port, "dst_port");
  same(x.amount, y.amount, "amount");
  same(x.agent, y.agent, "agent");
  same(x.subj_exe, y.subj_exe, "subj_exe");
  same(x.subj_user, y.subj_user, "subj_user");
  same(x.obj_exe, y.obj_exe, "obj_exe");
  same(x.obj_user, y.obj_user, "obj_user");
  same(x.obj_path, y.obj_path, "obj_path");
  same(x.src_ip, y.src_ip, "src_ip");
  same(x.dst_ip, y.dst_ip, "dst_ip");
  same(x.protocol, y.protocol, "protocol");
  same(x.op, y.op, "op");
  same(x.object_type, y.object_type, "object_type");
  same(x.failed, y.failed, "failed");
}

TEST(EventBlockTest, AppendRowsEqualsOneRowAppends) {
  // One `AppendRows` per chunk against a loop of one-row appends: the
  // same columns, the same dictionary in the same order, the same WAL
  // record bytes.
  const EventBatch corpus = SimulatedCorpus();
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{256},
                             size_t{4096}}) {
    EventBlock whole;
    EventBlock rows;
    WalRecord want;
    WalRecord got;
    for (size_t off = 0; off < corpus.size(); off += chunk) {
      const size_t n = std::min(chunk, corpus.size() - off);
      whole.Clear();
      whole.AppendRows(corpus.data() + off, n);
      rows.Clear();
      for (size_t i = 0; i < n; ++i) rows.AppendRows(&corpus[off + i], 1);
      ExpectSameColumns(whole, rows);
      ASSERT_EQ(whole.dict_size(), rows.dict_size()) << chunk << " @" << off;
      for (size_t i = 0; i < whole.dict_size(); ++i) {
        ASSERT_EQ(whole.dict()[i], rows.dict()[i]) << chunk << " @" << off;
      }
      EncodeWalRecord(off + 1, whole, &got);
      EncodeWalRecord(off + 1, rows, &want);
      ASSERT_EQ(got.bytes, want.bytes) << chunk << " @" << off;
    }
  }
}

TEST(EventBlockTest, SpellingsSharingTheLoadedBytesGetDistinctCodes) {
  // Equal length, equal first and last 8 bytes: only the middle differs.
  // Below 4 bytes: equal first, middle and last byte, differing length.
  const std::string head = "C:\\Users";  // 8 bytes
  const std::string tail = "\\x64.exe";  // 8 bytes
  const std::vector<std::string> spellings = {
      head + "AAAAA" + tail, head + "AAAAB" + tail, head + "BAAAA" + tail,
      head + "AABAA" + tail, "a", "aa", "aaa", "ab", "abb", "aba"};
  ASSERT_EQ(head.size(), 8u);
  ASSERT_EQ(tail.size(), 8u);
  EventBatch events;
  for (size_t i = 0; i < spellings.size(); ++i) {
    events.push_back(FileWrite(static_cast<int64_t>(i + 1), "x.exe",
                               spellings[i]));
  }
  EventBlock block;
  block.AppendRows(events.data(), events.size());
  const EventBlock::Columns& c = block.columns();
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(block.dict()[c.obj_path[i]], spellings[i]) << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(c.obj_path[i], c.obj_path[j]) << i << " vs " << j;
    }
  }
  ExpectRoundTrip(block, events);
}

TEST(EventBlockTest, WholeBlockMergeEqualsSubRangeMerges) {
  // The drainer's case: whole WAL chunks merged into a pending segment
  // (mapped entry by entry, gathered) against the same rows merged as
  // two sub-ranges each (remapped lazily). Dictionary order may differ;
  // the decoded rows may not.
  const EventBatch corpus = SimulatedCorpus();
  ASSERT_GE(corpus.size(), 512u);
  EventBlock first;
  EventBlock second;
  first.AppendRows(corpus.data(), 256);
  second.AppendRows(corpus.data() + 256, 256);
  EventBlock whole;
  whole.AppendColumns(first, 0, 256);
  whole.AppendColumns(second, 0, 256);
  EventBlock split;
  split.AppendColumns(first, 0, 100);
  split.AppendColumns(first, 100, 156);
  split.AppendColumns(second, 0, 1);
  split.AppendColumns(second, 1, 255);
  ASSERT_EQ(whole.size(), 512u);
  ASSERT_EQ(split.size(), 512u);
  const Event* got = whole.MutableRows();
  const Event* want = split.MutableRows();
  for (size_t i = 0; i < 512; ++i) {
    ExpectSameEvent(got[i], want[i], i);
    ExpectSameEvent(got[i], corpus[i], i);
  }
  ExpectRoundTrip(whole, EventBatch(corpus.begin(), corpus.begin() + 512));
}

}  // namespace
}  // namespace saql
