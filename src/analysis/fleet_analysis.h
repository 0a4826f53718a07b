#ifndef SAQL_ANALYSIS_FLEET_ANALYSIS_H_
#define SAQL_ANALYSIS_FLEET_ANALYSIS_H_

#include <memory>
#include <string>
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
class FleetAnalysis {
 public:
  /// One registered query, as held by the engine registry / session.
  struct Member {
    std::string name;
    AnalyzedQueryPtr aq;
  };

  using Options = FleetOptions;

  /// Full pairwise pass over `members`. Findings for a related pair attach
  /// to the higher-indexed member (the one registered later), mirroring the
  /// incremental AddQuery check.
  static FleetReport Analyze(const std::vector<Member>& members,
                             const Options& options = Options());

  /// Incremental form used at query admission: checks `candidate` against
  /// the already-registered fleet and returns its SA050/SA051 findings
  /// (never errors — fleet findings warn, they do not reject). Each pair is
  /// decided exactly as `Analyze` decides it with `candidate` registered
  /// last, from the entries' precomputed canonical forms.
  static std::vector<Diagnostic> CheckQuery(
      const FleetEntry& candidate, const std::vector<FleetEntry>& fleet,
      const Options& options = Options());
};

}  // namespace saql

#endif  // SAQL_ANALYSIS_FLEET_ANALYSIS_H_
