#ifndef SAQL_CORE_LIKE_MATCHER_H_
#define SAQL_CORE_LIKE_MATCHER_H_

#include <string>
#include <string_view>
#include <vector>

namespace saql {

/// SQL-LIKE style pattern matching used by SAQL entity constraints such as
/// `proc p1["%cmd.exe"]`: `%` matches any run of characters (including
/// empty), `_` matches exactly one character. Matching is case-insensitive
/// under the shared ASCII fold (`FoldAscii`; locale-independent, bytes
/// >= 0x80 compare exactly), mirroring how the paper's queries match
/// Windows executable names.
///
/// A compiled matcher is immutable and cheap to copy; compile once per query
/// pattern, match once per candidate event.
class LikeMatcher {
 public:
  /// Compiles `pattern`. Patterns without wildcards degrade to an exact
  /// (case-insensitive) comparison; patterns of the form `%suffix` use a
  /// suffix fast path, `prefix%` a prefix fast path.
  explicit LikeMatcher(const std::string& pattern);

  /// Returns true when `text` matches the compiled pattern.
  ///
  /// Matching is allocation-free: the comparison folds `text` in place
  /// (`FoldAscii`, 8 bytes at a time for the exact/prefix/suffix kinds)
  /// against the pre-lowered pattern instead of materializing a lowered
  /// copy per call (this sits on the per-event hot path — one
  /// call per string constraint per candidate event; see the A1 ablation in
  /// bench_ablation.cc and the allocation regression test in
  /// tests/like_matcher_test.cc). Exact (wildcard-free) equality on
  /// interned attributes is cheaper still — CompiledConstraint short-
  /// circuits those to a symbol-id compare before ever calling this.
  bool Matches(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

  /// True when the pattern contains no wildcard (exact match semantics).
  bool is_exact() const { return kind_ == Kind::kExact; }

 private:
  enum class Kind { kExact, kPrefix, kSuffix, kContains, kGeneral };

  /// Generic two-pointer LIKE matcher with backtracking over `%`.
  bool GeneralMatch(std::string_view text) const;

  std::string pattern_;         // original pattern
  std::string lowered_;         // lowercase pattern for fast paths
  std::string needle_;          // lowercase pattern without leading/trailing %
  Kind kind_;
};

}  // namespace saql

#endif  // SAQL_CORE_LIKE_MATCHER_H_
