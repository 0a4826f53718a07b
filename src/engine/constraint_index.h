#ifndef SAQL_ENGINE_CONSTRAINT_INDEX_H_
#define SAQL_ENGINE_CONSTRAINT_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "core/field_access.h"
#include "engine/compiled_pattern.h"

namespace saql {

class CompiledQuery;

/// Shared discrimination index over the attribute constraints of one query
/// group's members (the Rete/TriggerMan-style many-query matching move).
///
/// Brute-force member matching evaluates every member's full constraint
/// conjunction per forwarded event, so the per-event cost of a group grows
/// linearly with its member count even when the members test the same or
/// overlapping predicates. The index factors the members' compiled
/// constraints into *distinct predicate slots* at build time:
///
///  - Exact (wildcard-free) string equality on an internable attribute
///    becomes a *probe group* per (role, FieldId): all such constraints on
///    that field across all members resolve with ONE hash probe of the
///    event's interned symbol — the slots of a probe group are mutually
///    exclusive, so the probe satisfies at most one slot and refutes every
///    other in two bitset operations, regardless of member count.
///  - Everything else (numeric comparisons, LIKE with wildcards, `!=`,
///    equality on non-interned attributes) becomes a *residual slot*,
///    bucketed by (role, FieldId) and evaluated ONCE per event instead of
///    once per member that tests it.
///
/// Each member records the slots its conjunction requires; `Match` starts
/// from an all-ones member bitset and clears members as slots refute, so
/// duplicate and contradictory constraints fall out naturally. The result
/// carries two bitsets — members whose *global* (whole-event) constraints
/// passed, and members whose full conjunction matched — because per-member
/// statistics (`QueryStats::events_past_global`) must stay identical to
/// brute-force evaluation.
///
/// Probe groups read the event's symbols through the table the members'
/// constraints are bound to (`CompiledQuery::ReInternSymbols`); members
/// that are not bound give the index no probe groups, only residual
/// slots. An index is immutable after `Build`, and `Match` is const and
/// touches only the event, the bound table, and caller-owned scratch (the
/// owning `QueryGroup`'s `MatchResult`).
///
/// Semantics contract, pinned by tests/constraint_index_diff_test.cc: for
/// every event and every member, `Match` agrees exactly with evaluating
/// the member's `CompiledConstraint`s directly — including on un-interned
/// events (slot evaluation falls back to the constraints' own string
/// paths, which never allocate for exact equality).
class ConstraintIndex {
 public:
  /// Where a constraint reads its attribute from.
  enum class Side : uint8_t {
    kEvent = 0,    ///< whole-event (global constraint lines)
    kSubject = 1,  ///< subject entity
    kObject = 2,   ///< object entity
  };

  /// Member bitsets of one `Match` call. Words are 64-bit, member i lives
  /// at word i/64 bit i%64. Owned by the caller and reused across events.
  struct MatchResult {
    std::vector<uint64_t> passed_global;  ///< all global constraints passed
    std::vector<uint64_t> matched;        ///< full conjunction satisfied
  };

  /// Builds the index over `members` (the group's queries, in member
  /// order). Returns nullptr when the group is not indexable: fewer than
  /// two members (nothing to share) or any member with multiple event
  /// patterns (those route through the multievent matcher, whose
  /// per-pattern candidate logic the index does not model).
  static std::unique_ptr<const ConstraintIndex> Build(
      const std::vector<CompiledQuery*>& members);

  /// Evaluates every distinct slot once against `event` and fills
  /// `result`. The structural (type/op) shape is NOT checked here — the
  /// group's master filter already guarantees it for forwarded events.
  void Match(const Event& event, MatchResult* result) const;

  size_t num_members() const { return num_members_; }
  /// Distinct predicate slots across all members.
  size_t num_slots() const { return slots_.size(); }
  /// Slots resolved by symbol probes rather than per-slot evaluation.
  size_t num_probe_slots() const { return probe_slots_; }
  /// Total member→slot requirement edges before deduplication — the
  /// constraint evaluations brute force would perform per fully-scanned
  /// event; compare with num_slots() for the sharing factor.
  size_t total_constraints() const { return total_constraints_; }

  /// All-members mask (tail bits of the last word are zero); word count is
  /// (num_members + 63) / 64.
  const std::vector<uint64_t>& all_members() const { return all_members_; }

 private:
  /// One distinct predicate shared by every member whose bit is set.
  struct Slot {
    CompiledConstraint constraint;
    Side side;
    std::vector<uint64_t> members;  ///< members requiring this slot
  };

  /// All exact interned-equality slots on one (side, field): resolved by a
  /// single symbol probe per event.
  struct ProbeGroup {
    Side side;
    FieldId field = FieldId::kInvalid;
    /// Event symbol → position in `slots`.
    std::unordered_map<uint32_t, uint32_t> pos_by_symbol;
    std::vector<uint32_t> slots;  ///< for the un-interned fallback
    /// Per position: union of the *other* slots' members — the members a
    /// hit at that position refutes. This is not `all_members & ~hit`: a
    /// member with a contradictory conjunction (two different expected
    /// values on one field) sits in the hit slot AND another slot, and
    /// must still be refuted.
    std::vector<std::vector<uint64_t>> refuted_on_hit;
    std::vector<uint64_t> all_members;  ///< union of the slots' members
  };

  ConstraintIndex() = default;

  bool EvalSlot(const Slot& slot, const Event& event) const;
  void ApplyProbeGroup(const ProbeGroup& group, const Event& event,
                       std::vector<uint64_t>* matched) const;
  void ApplyResidual(const Slot& slot, const Event& event,
                     std::vector<uint64_t>* matched) const;

  size_t num_members_ = 0;
  size_t probe_slots_ = 0;
  size_t total_constraints_ = 0;
  /// The table the probe groups read symbols from, and its generation at
  /// build time. A session that rotates its table rebuilds its indexes
  /// before the next event; until then the generation check sends every
  /// event down the per-slot fallback (always correct).
  Interner* interner_ = nullptr;
  uint32_t built_gen_ = 0;
  std::vector<uint64_t> all_members_;
  std::vector<Slot> slots_;
  // Evaluation plan: global (whole-event) predicates first — their joint
  // outcome is snapshotted as `passed_global` — then entity predicates.
  std::vector<ProbeGroup> global_probes_;
  std::vector<uint32_t> global_residuals_;
  std::vector<ProbeGroup> entity_probes_;
  std::vector<uint32_t> entity_residuals_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_CONSTRAINT_INDEX_H_
