#include "core/like_matcher.h"

#include "core/string_util.h"

namespace saql {

namespace {

bool ContainsWildcard(const std::string& s) {
  return s.find('%') != std::string::npos ||
         s.find('_') != std::string::npos;
}

/// needle (pre-lowered) occurs in text (any case).
bool CiContains(std::string_view text, std::string_view needle) {
  if (needle.empty()) return true;
  if (text.size() < needle.size()) return false;
  for (size_t start = 0; start + needle.size() <= text.size(); ++start) {
    size_t i = 0;
    while (i < needle.size() && FoldAscii(text[start + i]) == needle[i]) {
      ++i;
    }
    if (i == needle.size()) return true;
  }
  return false;
}

}  // namespace

LikeMatcher::LikeMatcher(const std::string& pattern)
    : pattern_(pattern), lowered_(ToLower(pattern)) {
  const std::string& p = lowered_;
  if (!ContainsWildcard(p)) {
    kind_ = Kind::kExact;
    needle_ = p;
    return;
  }
  // Fast paths only apply when '%' is the sole wildcard present.
  bool has_underscore = p.find('_') != std::string::npos;
  size_t first = p.find('%');
  size_t last = p.rfind('%');
  if (!has_underscore && first == 0 && last == 0 && p.size() > 1) {
    kind_ = Kind::kSuffix;  // "%cmd.exe"
    needle_ = p.substr(1);
    return;
  }
  if (!has_underscore && first == p.size() - 1 && last == first &&
      p.size() > 1) {
    kind_ = Kind::kPrefix;  // "C:\\Windows\\%"
    needle_ = p.substr(0, p.size() - 1);
    return;
  }
  if (!has_underscore && first == 0 && last == p.size() - 1 &&
      p.find('%', 1) == last && p.size() > 2) {
    kind_ = Kind::kContains;  // "%temp%"
    needle_ = p.substr(1, p.size() - 2);
    return;
  }
  kind_ = Kind::kGeneral;
}

bool LikeMatcher::Matches(std::string_view text) const {
  switch (kind_) {
    case Kind::kExact:
      return AsciiCaseEqual(text, needle_);
    case Kind::kSuffix:
      return text.size() >= needle_.size() &&
             AsciiCaseEqual(text.substr(text.size() - needle_.size()),
                            needle_);
    case Kind::kPrefix:
      return text.size() >= needle_.size() &&
             AsciiCaseEqual(text.substr(0, needle_.size()), needle_);
    case Kind::kContains:
      return CiContains(text, needle_);
    case Kind::kGeneral:
      return GeneralMatch(text);
  }
  return false;
}

bool LikeMatcher::GeneralMatch(std::string_view text) const {
  const std::string& p = lowered_;
  // Classic iterative wildcard matching with backtracking on the most
  // recent '%' (linear in |text| for typical patterns). The pattern is
  // pre-lowered; text bytes lower on the fly.
  size_t ti = 0, pi = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (ti < text.size()) {
    if (pi < p.size() && (p[pi] == '_' || p[pi] == FoldAscii(text[ti]))) {
      ++ti;
      ++pi;
    } else if (pi < p.size() && p[pi] == '%') {
      star_p = pi++;
      star_t = ti;
    } else if (star_p != std::string::npos) {
      pi = star_p + 1;
      ti = ++star_t;
    } else {
      return false;
    }
  }
  while (pi < p.size() && p[pi] == '%') ++pi;
  return pi == p.size();
}

}  // namespace saql
