#ifndef SAQL_ENGINE_STATE_MAINTAINER_H_
#define SAQL_ENGINE_STATE_MAINTAINER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "engine/aggregates.h"
#include "engine/eval_contexts.h"
#include "engine/multievent_matcher.h"
#include "parser/analyzer.h"
#include "stream/window.h"

namespace saql {

/// The paper's state maintainer (§II-C): for a stateful query it buckets
/// matched events into sliding windows, maintains per-group aggregates
/// inside each window, and finalizes window states when event time passes
/// the window end.
///
/// Time windows are closed by `AdvanceWatermark`; all groups of one window
/// close together (which is what lets the cluster stage compare peers).
/// Count windows (`#count(N)`) close per group as soon as the group
/// accumulates N matches.
class StateMaintainer {
 public:
  /// One group's finalized state for a closing window.
  struct ClosedGroup {
    std::string group_key;          ///< canonical key (join of key values)
    std::vector<Value> key_values;  ///< by AnalyzedQuery::group_keys order
    WindowState state;
  };

  /// Invoked once per closing window with every group that had matches in
  /// it. `groups` is mutable so the caller can move values out.
  using CloseCallback =
      std::function<void(const TimeWindow&, std::vector<ClosedGroup>&)>;

  struct Stats {
    uint64_t matches_in = 0;
    uint64_t windows_closed = 0;
    uint64_t groups_closed = 0;
    uint64_t eval_errors = 0;
    size_t peak_open_cells = 0;
    /// Time-window matches behind the watermark: each match that was not
    /// folded into at least one of its windows because that window had
    /// closed already.
    uint64_t late_matches = 0;
  };

  explicit StateMaintainer(AnalyzedQueryPtr aq);

  /// Builds aggregate call-site tables. Must be called once before use.
  Status Init();

  void SetCloseCallback(CloseCallback cb) { close_cb_ = std::move(cb); }

  /// Folds one pattern match into its window(s) and group. A time window
  /// the watermark has closed is never reopened: the match skips it and
  /// counts in `Stats::late_matches`.
  void AddMatch(const PatternMatch& match);

  /// Closes all time windows ending at or before `watermark`.
  void AdvanceWatermark(Timestamp watermark);

  /// Closes everything still open (end of stream).
  void Finish();

  const Stats& stats() const { return stats_; }

 private:
  /// Live aggregation state of one (window, group) cell.
  struct Cell {
    std::vector<std::unique_ptr<Aggregator>> aggs;  // by agg site index
    std::vector<Value> key_values;
  };

  struct Bucket {
    TimeWindow window;
    std::unordered_map<std::string, Cell> cells;
  };

  /// Running count-window state of one group.
  struct CountCell {
    Cell cell;
    int64_t count = 0;
    Timestamp first_ts = 0;
    Timestamp last_ts = 0;
  };

  /// Computes group key values for a match; returns false on eval error.
  bool ResolveGroupKeys(const PatternMatch& match,
                        std::vector<Value>* values, std::string* key);

  Cell MakeCell(std::vector<Value> key_values);
  void FoldMatch(const PatternMatch& match, Cell* cell);
  WindowState FinishCell(const TimeWindow& window, Cell& cell);
  void CloseBucket(Bucket& bucket);

  AnalyzedQueryPtr aq_;
  CloseCallback close_cb_;
  /// Aggregate call sites across all state fields, in field order.
  std::vector<const Expr*> agg_sites_;
  /// Aggregate function name per site (lowercase).
  std::vector<std::string> agg_names_;
  /// One closing cell's finished aggregates, in `agg_sites_` order; reused
  /// across cells.
  std::vector<Value> agg_values_;

  bool is_count_window_ = false;
  int64_t count_n_ = 0;
  std::unique_ptr<WindowAssigner> assigner_;

  /// Open time windows keyed by window end (ordered so closing sweeps in
  /// time order).
  std::map<Timestamp, Bucket> open_;
  /// Cells across `open_`, kept as buckets gain cells and close.
  size_t open_cells_ = 0;
  /// Highest watermark every window ending at or before it has closed
  /// through.
  Timestamp closed_through_ = INT64_MIN;
  /// Open count windows per group.
  std::unordered_map<std::string, CountCell> count_cells_;

  Stats stats_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_STATE_MAINTAINER_H_
