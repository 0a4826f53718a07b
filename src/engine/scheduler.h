#ifndef SAQL_ENGINE_SCHEDULER_H_
#define SAQL_ENGINE_SCHEDULER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/compiled_query.h"
#include "engine/constraint_index.h"
#include "stream/stream_executor.h"

namespace saql {

/// A group of semantically compatible queries under the paper's
/// master-dependent-query scheme (§II-C). Queries whose event patterns
/// share the same structural shape (subject type, operation set, object
/// type per pattern) are grouped; the group subscribes to the stream
/// *once*, the master's structural matcher filters events, and only events
/// that structurally match are handed to the member queries — which then
/// apply their residual attribute constraints.
///
/// This is where the scheme's saving comes from: N compatible queries cost
/// one stream subscription and one structural match per event instead of
/// N full evaluations of irrelevant events. The group additionally exports
/// the master's op-mask × object-type envelope as its `RoutingInterest`,
/// so the executor's dispatch index skips the group entirely for events
/// that could never pass the master filter; skipped events are still
/// accounted in `events_in` to keep the stats comparable to broadcast
/// delivery.
class QueryGroup final : public EventProcessor {
 public:
  struct GroupStats {
    uint64_t events_in = 0;  ///< delivered + routed-away events
    uint64_t events_forwarded = 0;   ///< passed the shared master filter
    uint64_t member_deliveries = 0;  ///< events handed to member queries
  };

  explicit QueryGroup(std::string signature)
      : signature_(std::move(signature)) {}

  /// Adds a member. The first member becomes the master whose structural
  /// shape drives the shared filter (all members share it by construction).
  void AddMember(CompiledQuery* query) { members_.push_back(query); }

  /// Removes a member (a session retracting a query mid-stream); returns
  /// whether it was present. The caller owns index consistency: call
  /// `BuildIndex`/`DropIndex` after the membership change — the previous
  /// index still reflects the old member list and is dropped here to fail
  /// safe (brute force is always correct).
  bool RemoveMember(CompiledQuery* query) {
    for (auto it = members_.begin(); it != members_.end(); ++it) {
      if (*it == query) {
        members_.erase(it);
        index_.reset();
        return true;
      }
    }
    return false;
  }

  /// Builds the shared member-matching `ConstraintIndex` over the current
  /// members (BuildGroups time, or after a dynamic membership change). No-op
  /// — brute-force member delivery — when the group is not indexable (see
  /// ConstraintIndex::Build).
  void BuildIndex() { index_ = ConstraintIndex::Build(members_); }

  /// Reverts to brute-force member delivery.
  void DropIndex() { index_.reset(); }

  /// The shared index, or nullptr when this group delivers brute-force.
  const ConstraintIndex* index() const { return index_.get(); }

  void OnBatch(const EventRefs& events) override;
  void OnWatermark(Timestamp ts) override;
  void OnFinish() override;
  RoutingInterest Interest() const override;
  void OnRoutedSkip(uint64_t count) override { stats_.events_in += count; }

  const std::string& signature() const { return signature_; }
  size_t size() const { return members_.size(); }
  const CompiledQuery* master() const {
    return members_.empty() ? nullptr : members_.front();
  }
  const GroupStats& stats() const { return stats_; }

 private:
  /// Index-driven delivery of one forwarded slice: evaluates the shared
  /// index per event and hands each member only its matching events, with
  /// exact per-member stats accounting.
  void DeliverIndexed(const EventRefs& forwarded);

  std::string signature_;
  std::vector<CompiledQuery*> members_;
  GroupStats stats_;
  /// Scratch for batched member forwarding, reused across batches.
  EventRefs forward_scratch_;
  /// Shared constraint discrimination index (nullptr = brute force).
  std::unique_ptr<const ConstraintIndex> index_;
  // Reused index-delivery scratch.
  ConstraintIndex::MatchResult match_scratch_;
  std::vector<EventRefs> member_matches_;
  std::vector<uint64_t> member_failed_global_;
};

/// The paper's concurrent query scheduler: divides registered queries into
/// compatibility groups and exposes one `EventProcessor` per group. With
/// grouping disabled every query becomes its own group — the baseline the
/// evaluation compares against (one data copy per query).
class ConcurrentQueryScheduler {
 public:
  struct Options {
    bool enable_grouping = true;
    /// Build a shared `ConstraintIndex` per group at BuildGroups time so
    /// member-side matching is one index walk per event instead of one
    /// constraint-conjunction evaluation per member. Disabled = brute
    /// force (the differential-test and ablation baseline).
    bool enable_member_index = true;
    /// Smallest group that gets an index. For tiny groups the per-event
    /// bitset walk costs more than two or three direct conjunction
    /// evaluations (the A7 ablation's 8-query point); brute force stays
    /// faster until a few members share the walk. Tests drop this to 2
    /// for coverage.
    size_t min_index_members = 3;
  };

  ConcurrentQueryScheduler() : ConcurrentQueryScheduler(Options{}) {}
  explicit ConcurrentQueryScheduler(Options options) : options_(options) {}

  /// Registers a compiled query (not owned; must outlive the scheduler).
  void AddQuery(CompiledQuery* query);

  /// Builds groups from the registered queries. Must be called after all
  /// AddQuery calls and before `groups()`.
  void BuildGroups();

  /// Dynamic (post-BuildGroups) registration: patches the query into its
  /// compatibility group — an existing group when one with the same
  /// structural signature exists and grouping is enabled, a new group
  /// otherwise — and rebuilds the group's shared ConstraintIndex to cover
  /// the new member. Sets `*created` when the returned group is new (the
  /// caller must subscribe it to the executor); an existing group's
  /// stream subscription and routing interest are unchanged (members
  /// share the structural envelope by construction).
  QueryGroup* AddQueryDynamic(CompiledQuery* query, bool* created);

  /// Dynamic retraction: removes the query from its group, rebuilding (or
  /// dropping, below `min_index_members`) the group's index over the
  /// remaining members. When the group becomes empty its ownership moves
  /// into `*emptied` (so the caller can unsubscribe it from the executor
  /// before letting it die). Returns whether the query was registered.
  bool RemoveQuery(CompiledQuery* query, std::unique_ptr<QueryGroup>* emptied);

  /// Re-derives one group's index policy after a dynamic membership
  /// change: index when enabled and the group has at least
  /// `min_index_members` members, brute force otherwise.
  void ReindexGroup(QueryGroup* group);

  /// Rebuilds every group's index (a session's rotation: it re-binds its
  /// queries' symbols first, then calls this so probe groups pick the
  /// fresh ids up). Same policy as ReindexGroup per group.
  void ReindexAllGroups() {
    for (auto& g : groups_) ReindexGroup(g.get());
  }

  /// The processors to subscribe to the stream executor.
  std::vector<QueryGroup*> groups();

  size_t num_queries() const { return queries_.size(); }
  size_t num_groups() const { return groups_.size(); }
  /// Groups whose member matching runs through a shared ConstraintIndex.
  size_t num_indexed_groups() const;

  /// Events forwarded to members across groups / events seen — the measure
  /// of how much stream data the scheme filtered out before per-query work.
  /// Events withheld by the executor's dispatch index count as seen, so the
  /// ratio is comparable whether routing is on or off.
  double ForwardRatio() const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::vector<CompiledQuery*> queries_;
  std::vector<std::unique_ptr<QueryGroup>> groups_;
  /// Signature → group, maintained by BuildGroups and the dynamic
  /// add/remove path (grouping enabled only).
  std::map<std::string, QueryGroup*> by_signature_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_SCHEDULER_H_
