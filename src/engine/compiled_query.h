#ifndef SAQL_ENGINE_COMPILED_QUERY_H_
#define SAQL_ENGINE_COMPILED_QUERY_H_

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/alert.h"
#include "engine/compiled_pattern.h"
#include "engine/error_reporter.h"
#include "engine/eval_contexts.h"
#include "engine/multievent_matcher.h"
#include "engine/state_maintainer.h"
#include "parser/analyzer.h"
#include "stream/stream_executor.h"

namespace saql {

/// An executable SAQL query: the full pipeline from stream events to
/// alerts. Wraps the multievent matcher, state maintainer, invariant
/// trainer, cluster stage, and alert evaluation. A query never subscribes
/// to the `StreamExecutor` itself: its `QueryGroup` (scheduler.h) is the
/// subscriber and hands it events, watermarks and end of stream.
class CompiledQuery final {
 public:
  struct Options {
    /// Horizon for rule-query partial matches without a window.
    Duration match_horizon = 24 * kHour;
    size_t max_partial_matches = 100000;
    /// Minimum event-time spacing between alerts of the same (query,
    /// group) pair; 0 disables. Controls alert fatigue for continuously
    /// firing stateful queries (a production SOC requirement: the first
    /// detection matters, the 500th repeat does not).
    Duration alert_cooldown = 0;
  };

  struct QueryStats {
    uint64_t events_in = 0;
    uint64_t events_past_global = 0;  ///< passed global constraints
    uint64_t matches = 0;             ///< complete pattern matches
    uint64_t windows_closed = 0;
    uint64_t alerts = 0;
    uint64_t eval_errors = 0;
    /// Matches that missed an already-closed time window
    /// (`StateMaintainer::Stats::late_matches`).
    uint64_t late_matches = 0;
  };

  /// Compiles an analyzed query. `name` identifies the query in alerts and
  /// error reports.
  static Result<std::unique_ptr<CompiledQuery>> Create(
      AnalyzedQueryPtr aq, std::string name, Options options);
  static Result<std::unique_ptr<CompiledQuery>> Create(AnalyzedQueryPtr aq,
                                                       std::string name) {
    return Create(std::move(aq), std::move(name), Options{});
  }

  /// Sets the alert destination (required before running).
  void SetAlertSink(AlertSink sink) { sink_ = std::move(sink); }

  /// Attaches a shared error reporter (optional; errors are counted in
  /// stats regardless).
  void SetErrorReporter(ErrorReporter* reporter) { reporter_ = reporter; }

  /// One stream event, in timestamp order (brute-force member delivery).
  void OnEvent(const Event& event);
  /// Event time has advanced to `ts`: prunes expired partial matches and
  /// closes the windows ending at or before it.
  void OnWatermark(Timestamp ts);
  /// End of stream: flushes the open windows.
  void OnFinish();

  /// True when `event` matches the structural shape of any pattern (used by
  /// the concurrent-query scheduler's shared master filter).
  bool StructuralMatchAny(const Event& event) const;

  /// The compiled patterns, in declaration order.
  const std::vector<CompiledPattern>& patterns() const { return patterns_; }

  /// The compiled whole-event (global) constraints — read by the group's
  /// shared `ConstraintIndex` at BuildGroups time.
  const std::vector<CompiledConstraint>& global_constraints() const {
    return global_constraints_;
  }

  /// Index-driven delivery for single-pattern members of an indexed group:
  /// the group evaluated this member's constraint conjunction through the
  /// shared `ConstraintIndex` and hands over only the events that fully
  /// matched, plus the counts needed to keep `QueryStats` identical to
  /// brute-force delivery (`events_in` = events the member would have been
  /// handed, `failed_global` = how many of those failed its global
  /// constraints). Events in `matched` are in stream order.
  void OnIndexedDelivery(uint64_t events_in, uint64_t failed_global,
                         const EventRefs& matched);

  const std::string& name() const { return name_; }
  const AnalyzedQuery& analyzed() const { return *aq_; }
  QueryStats stats() const;

  /// Signature of the query's structural shape; queries with equal
  /// signatures are semantically compatible for scheduler grouping.
  std::string GroupSignature() const;

  /// Binds every constraint to `interner`, capturing its expected symbols
  /// under the table's current generation: the one bind and re-bind
  /// entry. The owning session calls it when it wires the query and after
  /// every rotation of its table. An unbound query compares strings.
  void ReInternSymbols(Interner& interner);

 private:
  CompiledQuery(AnalyzedQueryPtr aq, std::string name, Options options);

  Status Init();

  /// Rule-query path: a complete pattern match arrived.
  void EmitRuleMatch(const PatternMatch& match);

  /// Single-pattern path: `event` matched; hands it on as a one-event
  /// match in `scratch_single_` that borrows `event`.
  void EmitSingleMatch(const Event& event);

  /// Stateful path: one window closed with its groups.
  void OnWindowClose(const TimeWindow& window,
                     std::vector<StateMaintainer::ClosedGroup>& groups);

  void ReportError(const Status& status);

  /// Per-group retained state across windows.
  struct GroupHistory {
    std::deque<WindowState> history;  ///< front = newest closed window
    std::vector<Value> key_values;
    std::vector<Value> invariant_env;  ///< by invariant var index
    size_t windows_seen = 0;
  };

  /// Runs invariant init statements for a new group.
  void InitInvariantEnv(GroupHistory* gh);
  /// Runs invariant update statements for one group.
  void UpdateInvariant(GroupHistory* gh);

  /// Applies the cooldown policy; returns false when the alert should be
  /// suppressed.
  bool PassesCooldown(const std::string& group, Timestamp ts);

  AnalyzedQueryPtr aq_;
  std::string name_;
  Options options_;
  AlertSink sink_;
  ErrorReporter* reporter_ = nullptr;
  std::unordered_map<std::string, Timestamp> last_alert_ts_;

  std::vector<CompiledConstraint> global_constraints_;
  std::vector<CompiledPattern> patterns_;
  std::unique_ptr<MultieventMatcher> matcher_;  ///< multi-pattern queries
  std::unique_ptr<StateMaintainer> state_;      ///< stateful queries
  std::unordered_map<std::string, GroupHistory> groups_;
  /// `return distinct` rows seen so far: one rendered key per distinct
  /// row, kept for the life of the query with no cap and no expiry, so it
  /// grows with the number of distinct rows (ROADMAP item 2 lists it among
  /// the states with no limit yet).
  std::set<std::string, std::less<>> distinct_seen_;
  /// `EmitRuleMatch` scratch, reused across matches: the evaluated return
  /// row (an item read in place as a string is left untouched) and its
  /// rendered distinct key.
  std::vector<Value> row_;
  std::string distinct_key_;

  QueryStats stats_;
  std::vector<PatternMatch> scratch_matches_;
  PatternMatch scratch_single_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_COMPILED_QUERY_H_
