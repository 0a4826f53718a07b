#ifndef SAQL_ANALYSIS_FLEET_ANALYSIS_H_
#define SAQL_ANALYSIS_FLEET_ANALYSIS_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.h"
#include "parser/analyzer.h"

namespace saql {

/// One cross-query relation discovered by the fleet analyzer. Indices refer
/// to the member vector handed to `FleetAnalysis::Analyze`.
struct FleetRelation {
  enum class Kind {
    /// The two queries are canonically identical (patterns, constraints,
    /// variable sharing, window, state, alert, and return shape all equal up
    /// to renaming) — they raise the same alerts on every stream.
    kDuplicate,
    /// `a` is subsumed by `b`: both are stateless rule queries with the same
    /// window/alert/return shape and `a`'s constraint conjunction provably
    /// implies `b`'s, so every alert `a` raises, `b` raises too.
    kSubsumes,
  };

  size_t a = 0;
  size_t b = 0;
  Kind kind = Kind::kDuplicate;
};

/// One routing-envelope cell: the (object type, operation) dispatch bucket
/// the stream executor routes on, with every member whose patterns cover
/// it. Cells shared by several queries predict scheduler group sharing (one
/// event fan-in serving multiple queries).
struct RoutingCell {
  EntityType object_type = EntityType::kProcess;
  EventOp op = EventOp::kRead;
  std::vector<size_t> members;  ///< member indices, ascending
};

/// Result of a whole-fleet pass: per-member SA050/SA051 findings, the raw
/// relations, and the routing-envelope overlap statistics.
struct FleetReport {
  std::vector<std::string> names;               ///< member names, by index
  std::vector<FleetRelation> relations;         ///< discovered relations
  std::vector<std::vector<Diagnostic>> findings;  ///< per member
  std::vector<RoutingCell> cells;  ///< most-shared first, then type/op order

  /// True when any member drew an SA050/SA051 finding.
  bool HasFindings() const;

  /// Multi-line rendering for the shell's `fleet` command and saql_lint
  /// --fleet: relation lines first, then the routing-envelope table.
  std::string ToString() const;
};

/// Knobs for the fleet pass.
struct FleetOptions {
  /// Enable SA051 subsumption claims. Hooks pass `alert_cooldown == 0`;
  /// SA050 duplicate detection is sound regardless and always runs.
  bool subsumption = true;
};

/// A query's canonical form (defined in fleet_analysis.cc).
struct CanonQuery;

/// One fleet member with its canonical form, computed once at construction.
/// Copies share that form, so a registry entry snapshot by many sessions is
/// canonicalized exactly once.
struct FleetEntry {
  FleetEntry(std::string name, AnalyzedQueryPtr aq);

  std::string name;
  AnalyzedQueryPtr aq;  ///< immutable, shared across sessions
  std::shared_ptr<const CanonQuery> canon;
  /// Registration sequence, stamped by `Fleet::Add`: members are checked
  /// and reported in this order.
  uint64_t seq = 0;
};

/// A registered query set — the engine registry, a session's active
/// queries, or a whole-fleet pass — with an index that finds the members a
/// new query can relate to without visiting the others.
///
/// Members are bucketed by everything SA050 and SA051 require to be equal:
/// the shape string, the pattern count, and each pattern's subject and
/// object type. Within a bucket, every constraint that only an identical
/// constraint can imply — wildcard-free string equality, numeric and bool
/// equality — is a required key (a 64-bit hash of pattern or global
/// position, role, canonical field, tag and value). In a related pair the
/// wider query's keys are a subset of the tighter query's, and duplicates
/// have equal key sets, so `Candidates` returns only members holding all
/// of the candidate's keys (walked from its shortest posting list) or
/// whose keys are all among the candidate's (hits counted over its posting
/// lists, plus the bucket's key-less members). The index only drops pairs the
/// relation provably calls unrelated; `FleetAnalysis::Relate` decides the
/// rest, so findings equal an all-pairs pass.
class Fleet {
 public:
  Fleet() = default;
  Fleet(std::initializer_list<FleetEntry> entries);

  /// Registers `entry` after every current member and indexes it.
  void Add(FleetEntry entry);

  /// Unregisters the first member named `name`; false when there is none.
  bool Remove(const std::string& name);

  /// The members in registration order.
  const std::vector<FleetEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// The members the index cannot rule out as related to `candidate`, in
  /// registration order.
  std::vector<const FleetEntry*> Candidates(const FleetEntry& candidate) const;

  /// `candidate`'s SA050/SA051 findings against the members, as if it were
  /// registered last (never errors — fleet findings warn, they do not
  /// reject), in registration order of the related members.
  std::vector<Diagnostic> Check(const FleetEntry& candidate,
                                const FleetOptions& options) const;

 private:
  /// One bucket's members, flat: a few sorted vectors per bucket keep a
  /// copy (each session snapshots the registry) small and cheap.
  struct Bucket {
    std::vector<uint64_t> members;  ///< seqs, ascending
    std::vector<uint64_t> keyless;  ///< members without a key, ascending
    /// (key hash, seq) per required key of each member, ascending: a
    /// key's posting list is its equal range.
    std::vector<std::pair<uint64_t, uint64_t>> postings;
  };

  const FleetEntry& BySeq(uint64_t seq) const;

  std::vector<FleetEntry> entries_;  ///< ascending seq
  std::unordered_map<uint64_t, Bucket> buckets_;
  uint64_t next_seq_ = 0;
};

/// Cross-query static analysis over a set of compiled (analyzed) queries:
/// the fleet-level counterpart to `QueryAnalysis::Lint`.
///
/// Every query is lowered to a canonical form — patterns as (subject type,
/// op mask, object type) skeletons, constraints normalized to (canonical
/// FieldId, op, case-folded value) slots in the style of the executor's
/// ConstraintIndex, variable names erased in favour of (pattern, role)
/// sharing partitions, and the window/state/alert/return shape rendered with
/// resolved references. On top of that form:
///
///   SA050 (warning) — exact canonical equality: the queries alert
///          identically on every stream (double alerting).
///   SA051 (warning) — one-sided subsumption between stateless rule queries
///          with identical shape: A's constraint conjunction implies B's
///          (string implication honours the engine's case-insensitive LIKE
///          semantics; numeric implication is interval-based), so A's alert
///          set is contained in B's on every stream.
///
/// Both checks are conservative: a relation is only reported when it
/// provably holds under the engine's constraint semantics; expression shapes
/// are compared structurally (no algebraic rewriting). Subsumption is never
/// claimed for stateful queries — tighter constraints change aggregate
/// inputs, which can *add* alerts — nor when `Options::subsumption` is off
/// (engines with a nonzero alert cooldown, where suppression timing breaks
/// the containment argument).
///
/// No pass compares every pair: `Fleet` hands `Relate` only the members its
/// index cannot rule out (see `Fleet` for the soundness rule), so admitting
/// a query costs its candidates, not the fleet size.
class FleetAnalysis {
 public:
  /// One query of a whole-fleet pass.
  struct Member {
    std::string name;
    AnalyzedQueryPtr aq;
  };

  using Options = FleetOptions;

  /// How a later-registered query relates to an earlier one.
  enum class PairRelation { kNone, kDuplicate, kLaterTighter, kLaterWider };

  /// The one pair decider: `Analyze` and `Fleet::Check` decide every
  /// candidate pair through it, so they always agree.
  static PairRelation Relate(const FleetEntry& earlier,
                             const FleetEntry& later,
                             const Options& options = Options());

  /// Whole-fleet pass over `members`, registered in order through a
  /// `Fleet`. Findings for a related pair attach to the higher-indexed
  /// member (the one registered later), mirroring the incremental AddQuery
  /// check.
  static FleetReport Analyze(const std::vector<Member>& members,
                             const Options& options = Options());

  /// Same as `fleet.Check(candidate, options)`.
  static std::vector<Diagnostic> CheckQuery(const FleetEntry& candidate,
                                            const Fleet& fleet,
                                            const Options& options = Options());
};

}  // namespace saql

#endif  // SAQL_ANALYSIS_FLEET_ANALYSIS_H_
