#ifndef SAQL_ENGINE_SHARD_MERGE_H_
#define SAQL_ENGINE_SHARD_MERGE_H_

#include <cstdint>
#include <map>
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
/// `Aggregator::Merge`, and once the watermark has passed a window's end
/// evaluates the merged window on the query's merge replica: state fields
/// once, then the usual group history / invariant / cluster / alert
/// pipeline, as if a single-threaded run had closed that window.
///
/// Alignment: the executor applies each watermark on every shard lane in
/// one synchronous step, and a lane exports a window's partials while it
/// applies the watermark that closes it. So once the executor's
/// `AdvanceWatermark(W)` returned, every partial for windows ending at or
/// before W has been exported, and the session calls `AdvanceWatermark`
/// with W on this stage; after `FinishStream`, it calls `Finish()`.
///
/// Thread safety: each shard lane exports into its own outbox per query,
/// so concurrent `AddPartials` calls take no lock. `AdvanceWatermark` is
/// split into parts that own disjoint queries, so the session runs them
/// on the shard lanes in one step (`ShardedStreamExecutor::RunOnShards`).
/// A part folds its queries' outboxes in shard order — merged aggregates
/// do not depend on thread timing — then evaluates their ready windows in
/// (window end, start) order; alerts go to the replicas' sinks, which must
/// be thread-safe. Registering and removing queries happen between steps.
class ShardMergeStage {
 public:
  explicit ShardMergeStage(size_t num_shards) : num_shards_(num_shards) {}

  /// Registers a stateful query's merge replica (not owned). Returns the
  /// query handle to use in `AddPartials`. Call before the stream starts
  /// or between steps (a session adding a query dynamically).
  size_t RegisterQuery(CompiledQuery* merge_replica);

  /// Tears down one query's merge state: pending (un-evaluated) partial
  /// windows are dropped — not flushed — and later AddPartials calls for
  /// this handle are ignored. Call between steps; the handle is not
  /// reused.
  void RemoveQuery(size_t query);

  /// Queues shard `shard`'s partial groups for `window`, moving them out
  /// of `groups`. Called from that shard's lane during a step.
  void AddPartials(size_t shard, size_t query, const TimeWindow& window,
                   std::vector<StateMaintainer::PartialGroup>& groups);

  /// Every shard lane applied watermark `ts`: for the queries part `part`
  /// (of `num_shards` parts) owns, folds their exports and evaluates every
  /// pending window ending at or before `ts`.
  void AdvanceWatermark(size_t part, Timestamp ts);

  /// Every shard lane finished its stream: evaluates everything pending,
  /// all parts on the calling thread.
  void Finish();

 private:
  struct PendingWindow {
    TimeWindow window;
    /// group key → merged partial, ordered for deterministic evaluation.
    std::map<std::string, StateMaintainer::PartialGroup> groups;
  };

  /// One `AddPartials` call, queued until the query's part folds it.
  struct Export {
    TimeWindow window;
    std::vector<StateMaintainer::PartialGroup> groups;
  };

  struct QueryState {
    CompiledQuery* replica = nullptr;
    /// One outbox per shard lane, written only by that lane.
    std::vector<std::vector<Export>> outboxes;
    /// Keyed by (end, start) so draining sweeps windows in close order.
    std::map<std::pair<Timestamp, Timestamp>, PendingWindow> pending;
  };

  /// Folds `qs`'s outboxes into its pending windows, shard by shard.
  static void FoldOutboxes(QueryState& qs);

  const size_t num_shards_;
  std::vector<QueryState> queries_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_SHARD_MERGE_H_
