#ifndef SAQL_CORE_STRING_UTIL_H_
#define SAQL_CORE_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace saql {

/// The one case fold SAQL uses for case-insensitive names (entity
/// constraints, LIKE patterns, string `==`, the interner): bytes 'A'..'Z'
/// map to 'a'..'z', and every other byte, including bytes >= 0x80, is
/// kept as is. It is ASCII-only and independent of the process locale
/// (under the "C" locale, the C library's lowercasing maps bytes the same
/// way).
inline char FoldAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c | 0x20) : c;
}

/// `FoldAscii` applied to each of the 8 bytes of `w` at once, without
/// branches: a byte gets 0x20 added exactly when it is in 'A'..'Z'.
inline uint64_t FoldAsciiWord(uint64_t w) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  // Per byte, with the top bit cleared (0..0x7f), the additions cannot
  // carry into the next byte; their top bits then say `b >= 'A'` and
  // `b > 'Z'`. Bytes >= 0x80 are excluded by `~w`.
  const uint64_t low7 = w & ~kHigh;
  const uint64_t ge_a = low7 + (0x80 - 'A') * kOnes;
  const uint64_t gt_z = low7 + (0x80 - 'Z' - 1) * kOnes;
  const uint64_t upper = ge_a & ~gt_z & ~w & kHigh;
  return w | (upper >> 2);  // 0x80 >> 2 == 0x20
}

/// Equality under `FoldAscii`, compared 8 bytes at a time. Allocation-free.
bool AsciiCaseEqual(std::string_view a, std::string_view b);

/// Hash of the `FoldAscii`-folded bytes of `s`, 8 bytes at a time, so
/// `AsciiCaseEqual` strings hash alike. In-memory use only: the value may
/// change between builds and must never be persisted.
size_t AsciiCaseHash(std::string_view s);

/// Lowercase copy under `FoldAscii`.
std::string ToLower(std::string_view s);

/// Removes leading and trailing whitespace.
std::string Trim(const std::string& s);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

}  // namespace saql

#endif  // SAQL_CORE_STRING_UTIL_H_
