#ifndef SAQL_STREAM_WINDOW_H_
#define SAQL_STREAM_WINDOW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_util.h"
#include "parser/ast.h"

namespace saql {

/// One concrete time window instance `[start, end)`.
struct TimeWindow {
  Timestamp start = 0;
  Timestamp end = 0;

  bool Contains(Timestamp ts) const { return ts >= start && ts < end; }
  bool operator==(const TimeWindow&) const = default;

  std::string ToString() const;
};

/// Maps event timestamps to the sliding windows they belong to, following
/// the SAQL `#time(length[, slide])` semantics:
///
///  - slide == length (the default) gives tumbling windows, which is what
///    the paper's queries use — `ss[0]`, `ss[1]`, `ss[2]` are successive
///    10-minute windows;
///  - slide < length gives overlapping (hopping) windows, in which case an
///    event belongs to ceil(length/slide) windows.
///
/// Window starts are aligned to multiples of the slide from epoch so that
/// all queries with the same spec agree on boundaries (this alignment is
/// what makes master/dependent queries shareable).
class WindowAssigner {
 public:
  /// `spec` must be a time window (count windows are handled by the state
  /// maintainer's match counter, not by time assignment).
  explicit WindowAssigner(const WindowSpec& spec);

  /// All windows containing `ts`, earliest first.
  std::vector<TimeWindow> Assign(Timestamp ts) const;

  Duration length() const { return length_; }
  Duration slide() const { return slide_; }

 private:
  Duration length_;
  Duration slide_;
};

}  // namespace saql

#endif  // SAQL_STREAM_WINDOW_H_
