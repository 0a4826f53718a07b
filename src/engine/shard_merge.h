#ifndef SAQL_ENGINE_SHARD_MERGE_H_
#define SAQL_ENGINE_SHARD_MERGE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/compiled_query.h"
#include "engine/state_maintainer.h"

namespace saql {

/// Cross-shard window merge for stateful queries under the sharded
/// executor. Shard replicas export *partial* window states (live
/// aggregators, one per (window, group) cell the shard saw); this stage
/// combines partials of the same (query, window, group) across shards with
/// `Aggregator::Merge`, and once every shard's watermark has passed a
/// window's end — the alignment rule — evaluates the merged window on the
/// query's merge replica: state fields once, then the usual group history /
/// invariant / cluster / alert pipeline, as if a single-threaded run had
/// closed that window.
///
/// Alignment: a window [s, e) is ready when min over shards of the last
/// reported lane watermark is ≥ e. Shard lanes 0..N-1 report progress
/// through the sharded executor's `ProgressHooks`, which fire *after* the
/// lane's query groups processed the watermark, so every partial for
/// windows ≤ W has been added before the lane reports W. The global lane
/// N hosts no replicas and exports no partials, so its reports are not
/// forwarded here. A finished lane reports +inf, so end-of-stream flushes
/// deterministically.
///
/// Thread safety: all entry points are called from shard lane threads and
/// serialize on one mutex. Merged-window evaluation (and the alerts it
/// emits) therefore runs on whichever lane thread aligned the watermark,
/// one window at a time, in (window end, registration order) per query.
class ShardMergeStage {
 public:
  explicit ShardMergeStage(size_t num_shards);

  /// Registers a stateful query's merge replica (not owned). Returns the
  /// query handle to use in `AddPartials`. Call before the stream starts,
  /// or mid-stream while the lane pipeline is quiesced (a session adding
  /// a query dynamically).
  size_t RegisterQuery(CompiledQuery* merge_replica);

  /// Tears down one query's merge state: pending (un-evaluated) partial
  /// windows are dropped — not flushed — and later AddPartials calls for
  /// this handle are ignored. Call while the lane pipeline is quiesced;
  /// the handle is not reused.
  void RemoveQuery(size_t query);

  /// Folds one shard's partial groups for `window` into the pending merge
  /// state. Called from lane threads (thread-safe); moves the aggregators
  /// out of `groups`.
  void AddPartials(size_t query, const TimeWindow& window,
                   std::vector<StateMaintainer::PartialGroup>& groups);

  /// One shard lane observed watermark `ts`; evaluates every pending
  /// window ending at or before the new aligned (min-over-shards)
  /// watermark.
  void AdvanceShardWatermark(size_t shard, Timestamp ts);

  /// One shard lane finished its stream (watermark jumps to +inf).
  void FinishShard(size_t shard);

 private:
  struct PendingWindow {
    TimeWindow window;
    /// group key → merged partial, ordered for deterministic evaluation.
    std::map<std::string, StateMaintainer::PartialGroup> groups;
  };

  struct QueryState {
    CompiledQuery* replica = nullptr;
    /// Keyed by (end, start) so draining sweeps windows in close order.
    std::map<std::pair<Timestamp, Timestamp>, PendingWindow> pending;
  };

  /// Evaluates all windows ready under the aligned watermark. Requires
  /// `mu_` held.
  void DrainReadyLocked();

  std::mutex mu_;
  std::vector<Timestamp> shard_watermarks_;
  std::vector<QueryState> queries_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_SHARD_MERGE_H_
