#ifndef SAQL_ENGINE_ERROR_REPORTER_H_
#define SAQL_ENGINE_ERROR_REPORTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace saql {

/// The paper's error reporter (§II-C): collects query-compile and runtime
/// errors during execution without interrupting the stream. Identical
/// errors are deduplicated with a count; the table is bounded so a
/// pathological query cannot exhaust memory with distinct messages.
///
/// Thread-safe: the concurrent sessions of one engine share one reporter.
class ErrorReporter {
 public:
  struct Entry {
    std::string query;
    Status status;
    uint64_t count = 0;
  };

  explicit ErrorReporter(size_t max_entries = 1000)
      : max_entries_(max_entries) {}

  /// Records `status` (must be non-OK) attributed to `query`.
  void Report(const std::string& query, const Status& status);

  /// All distinct errors, in first-seen order.
  std::vector<Entry> entries() const;

  /// Total reports, including deduplicated and overflowed ones.
  uint64_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  bool empty() const { return total() == 0; }

  /// Multi-line rendering for the CLI.
  std::string ToString() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  size_t max_entries_;
  uint64_t total_ = 0;
  uint64_t overflow_ = 0;
  std::map<std::string, size_t> index_;  // dedupe key -> position
  std::vector<Entry> entries_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_ERROR_REPORTER_H_
