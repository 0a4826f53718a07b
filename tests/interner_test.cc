// Interner lifecycle: size accounting for high-cardinality fields and the
// rotation hook for long-running deployments; the case-fold properties of
// the word-at-a-time probe and its allocation-free hit path.

#include "core/interner.h"

#include <cctype>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/string_util.h"
#include "test_util.h"

namespace saql {
namespace {

using testing::EventBuilder;

TEST(InternerTest, AccountingMatchesInsertedSpellings) {
  Interner interner;
  Interner::Stats empty = interner.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  std::vector<std::string> spellings = {
      "cmd.exe", "C:\\Windows\\Temp\\payload.bin", "alice", "db-server-01",
      "/var/log/syslog"};
  size_t expected_bytes = 0;
  for (const std::string& s : spellings) {
    interner.Intern(s);
    expected_bytes += s.size();  // normalization only lowercases
  }
  Interner::Stats st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size());
  EXPECT_EQ(st.bytes, expected_bytes);

  // Re-interning (any case) adds nothing: same normalized spelling.
  interner.Intern("CMD.EXE");
  interner.Intern("Alice");
  st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size());
  EXPECT_EQ(st.bytes, expected_bytes);

  // A genuinely new spelling is accounted at its normalized length.
  interner.Intern("EVIL.dll");
  st = interner.stats();
  EXPECT_EQ(st.entries, spellings.size() + 1);
  EXPECT_EQ(st.bytes, expected_bytes + std::string("evil.dll").size());
}

TEST(InternerTest, RotateResetsTableAndBumpsGeneration) {
  Interner interner;
  const uint32_t gen0 = interner.stats().generation;
  uint32_t id = interner.Intern("stale-path");
  EXPECT_NE(id, Interner::kUnset);
  EXPECT_EQ(interner.Find("stale-path"), id);

  interner.Rotate();
  Interner::Stats st = interner.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_NE(st.generation, gen0);  // drawn anew from the process counter
  EXPECT_EQ(st.rotations, 1u);
  EXPECT_EQ(interner.Find("stale-path"), Interner::kUnset);

  // Ids restart densely after rotation.
  EXPECT_EQ(interner.Intern("fresh"), 1u);
}

TEST(InternerTest, EventSpanReinternsAfterGlobalRotation) {
  // Event buffers survive a rotation: InternEventSpan re-interns events
  // stamped with an older generation instead of trusting stale ids. A
  // second table sees the first table's memos as stale too.
  Interner interner;
  EventBatch events;
  events.push_back(EventBuilder()
                       .At(1)
                       .OnHost("h1")
                       .Subject("sqlservr.exe", 7)
                       .Op(EventOp::kWrite)
                       .FileObject("/backup1.dmp")
                       .Build());
  InternEventSpan(interner, events.data(), events.size());
  uint32_t gen_before = events[0].syms.gen;
  uint32_t path_before = events[0].syms.obj_path;
  ASSERT_NE(path_before, Interner::kUnset);
  EXPECT_EQ(interner.NameOf(path_before), "/backup1.dmp");

  // Memoized: a second pass does not re-stamp.
  InternEventSpan(interner, events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, gen_before);

  interner.Rotate();
  InternEventSpan(interner, events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, interner.generation());
  EXPECT_NE(events[0].syms.gen, gen_before);
  EXPECT_EQ(interner.NameOf(events[0].syms.obj_path), "/backup1.dmp");

  Interner other;
  other.Intern("unrelated");  // shifts the ids other assigns next
  InternEventSpan(other, events.data(), events.size());
  EXPECT_EQ(events[0].syms.gen, other.generation());
  EXPECT_EQ(other.NameOf(events[0].syms.obj_path), "/backup1.dmp");
}

/// Reference fold, byte by byte: only 'A'..'Z' change.
std::string RefLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

/// Seeded random spellings of length 0..40, so every 8-byte word and every
/// 1..7-byte tail length is crossed. The alphabet mixes letters of both
/// cases with the bytes next to the 'A'..'Z' range ('@', '[', '\\', '`',
/// '{') and bytes >= 0x80, none of which may fold.
std::vector<std::string> RandomSpellings(size_t count, uint32_t seed) {
  static const std::string kAlphabet =
      std::string("abcxyzABCXYZ09./\\@[`{_|~-") + "\x80\xC1\xC4\xDA\xE4\xFF";
  std::mt19937 rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string s(rng() % 41, ' ');
    for (char& c : s) c = kAlphabet[rng() % kAlphabet.size()];
    out.push_back(s);
  }
  return out;
}

/// `s` with each letter's case flipped when `rng` says so.
std::string RandomCase(const std::string& s, std::mt19937* rng) {
  std::string out = s;
  for (char& c : out) {
    if ((*rng)() % 2 == 0) continue;
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

TEST(InternerTest, WordFoldAgreesWithByteFoldAndCLocale) {
  // Every byte value, in every lane of the 8-byte word.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(static_cast<unsigned char>(FoldAscii(c)),
              static_cast<unsigned char>(std::tolower(b)))
        << "byte " << b;
    for (int lane = 0; lane < 8; ++lane) {
      char bytes[8] = {'Q', 'q', '@', '[', '`', '{', '\x80', 'Z'};
      bytes[lane] = c;
      uint64_t w = 0;
      std::memcpy(&w, bytes, 8);
      w = FoldAsciiWord(w);
      char folded[8] = {};
      std::memcpy(folded, &w, 8);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(folded[i], FoldAscii(bytes[i]))
            << "byte " << b << " lane " << lane << " position " << i;
      }
    }
  }
}

TEST(InternerTest, CaseVariantsOfRandomSpellingsShareOneIdAndLowercaseName) {
  Interner interner;
  std::mt19937 rng(7);
  for (const std::string& s : RandomSpellings(2000, 20200227)) {
    const uint32_t id = interner.Intern(s);
    ASSERT_NE(id, Interner::kUnset);
    EXPECT_EQ(interner.NameOf(id), RefLower(s));
    EXPECT_EQ(interner.Find(s), id);
    for (int v = 0; v < 3; ++v) {
      const std::string variant = RandomCase(s, &rng);
      EXPECT_EQ(interner.Find(variant), id) << variant;
      EXPECT_EQ(interner.Intern(variant), id) << variant;
    }
  }
}

TEST(InternerTest, SpellingsDifferingInTheLastByteGetDistinctIds) {
  Interner interner;
  for (const std::string& s : RandomSpellings(2000, 31337)) {
    if (s.empty()) continue;
    std::string other = s;
    char& last = other.back();
    // Any change that is not a case flip of a letter is a different name.
    last = (last == '0') ? '1' : '0';
    const uint32_t a = interner.Intern(s);
    const uint32_t b = interner.Intern(other);
    EXPECT_NE(a, b) << s << " vs " << other;
    EXPECT_EQ(interner.Find(s), a);
    EXPECT_EQ(interner.Find(other), b);
  }
}

TEST(InternerTest, BytesOutsideAsciiLettersNeverFold) {
  // Each pair is 0x20 apart, like 'A'/'a', but only letters fold.
  const std::pair<std::string, std::string> kPairs[] = {
      {"@", "`"},       {"[", "{"},       {"\\", "|"},
      {"]", "}"},       {"^", "~"},       {"\xC4", "\xE4"},
      {"\xC1", "\xE1"}, {"\xDA", "\xFA"}, {"x@yyyyyyyyy", "x`yyyyyyyyy"},
  };
  Interner interner;
  for (const auto& [a, b] : kPairs) {
    const uint32_t ia = interner.Intern(a);
    const uint32_t ib = interner.Intern(b);
    EXPECT_NE(ia, ib) << a << " vs " << b;
    EXPECT_EQ(interner.NameOf(ia), a);
    EXPECT_EQ(interner.NameOf(ib), b);
  }
}

TEST(InternerTest, HitPathDoesNotAllocate) {
  Interner interner;
  const std::vector<std::string> spellings = {
      "a", "CMD.EXE", "C:\\Windows\\System32\\svchost.exe",
      "/var/lib/postgresql/14/main/base/16384/2619", "db-server-01"};
  std::vector<uint32_t> ids;
  for (const std::string& s : spellings) ids.push_back(interner.Intern(s));
  std::vector<std::string> upper;
  for (const std::string& s : spellings) {
    std::string u = s;
    for (char& c : u) c = static_cast<char>(std::toupper(c));
    upper.push_back(u);
  }

  size_t same = 0;
  const size_t before = testing::HeapAllocs();
  for (int round = 0; round < 100; ++round) {
    for (size_t i = 0; i < spellings.size(); ++i) {
      same += interner.Intern(spellings[i]) == ids[i];
      same += interner.Intern(upper[i]) == ids[i];
      same += interner.Find(spellings[i]) == ids[i];
      same += interner.Find(upper[i]) == ids[i];
    }
  }
  const size_t after = testing::HeapAllocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(same, 100u * 4u * spellings.size());
}

}  // namespace
}  // namespace saql
