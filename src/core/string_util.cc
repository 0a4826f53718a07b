#include "core/string_util.h"

#include <cctype>
#include <cstring>

namespace saql {

namespace {

/// 8 bytes at `p`, as one word (a fixed-size copy compiles to one load).
inline uint64_t LoadWord(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, 8);
  return w;
}

/// The `n` (1..7) bytes at `p` as one zero-padded word, read with
/// fixed-size 4/2/1-byte loads: never past `p + n`, and no variable-length
/// copy (which would be a library call).
inline uint64_t LoadTail(const char* p, size_t n) {
  uint64_t w = 0;
  size_t off = 0;
  if (n & 4) {
    uint32_t v = 0;
    std::memcpy(&v, p, 4);
    w = v;
    off = 4;
  }
  if (n & 2) {
    uint16_t v = 0;
    std::memcpy(&v, p + off, 2);
    w |= static_cast<uint64_t>(v) << (off * 8);
    off += 2;
  }
  if (n & 1) {
    w |= static_cast<uint64_t>(static_cast<unsigned char>(p[off]))
         << (off * 8);
  }
  return w;
}

constexpr uint64_t kHashMul = 0x9e3779b97f4a7c15ull;

inline uint64_t HashStep(uint64_t h, uint64_t word) {
  h = (h ^ word) * kHashMul;
  return h ^ (h >> 32);
}

}  // namespace

bool AsciiCaseEqual(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  const char* pa = a.data();
  const char* pb = b.data();
  size_t n = a.size();
  for (; n >= 8; pa += 8, pb += 8, n -= 8) {
    if (FoldAsciiWord(LoadWord(pa)) != FoldAsciiWord(LoadWord(pb))) {
      return false;
    }
  }
  return n == 0 ||
         FoldAsciiWord(LoadTail(pa, n)) == FoldAsciiWord(LoadTail(pb, n));
}

size_t AsciiCaseHash(std::string_view s) {
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = static_cast<uint64_t>(n) * kHashMul;
  for (; n >= 8; p += 8, n -= 8) h = HashStep(h, FoldAsciiWord(LoadWord(p)));
  if (n > 0) h = HashStep(h, FoldAsciiWord(LoadTail(p, n)));
  return static_cast<size_t>(HashStep(h, 0));
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = FoldAscii(c);
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace saql
