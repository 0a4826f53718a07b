#ifndef SAQL_ENGINE_EVAL_CONTEXTS_H_
#define SAQL_ENGINE_EVAL_CONTEXTS_H_

#include <deque>
#include <string>
#include <vector>

#include "engine/expr_eval.h"
#include "engine/multievent_matcher.h"
#include "parser/analyzer.h"
#include "stream/window.h"

namespace saql {

/// One window's computed state for one group: the values of the query's
/// state fields (`ss.avg_amount`, ...).
struct WindowState {
  TimeWindow window;
  std::vector<Value> fields;  ///< indexed by AnalyzedQuery::state_field_index
};

/// Result of the cluster stage for one group in one window.
struct ClusterOutcome {
  bool valid = false;  ///< false when the query has no cluster stage
  bool outlier = false;
  int cluster_id = -1;
  int cluster_size = 0;
};

/// Context for expressions evaluated against one complete pattern match:
/// rule-query alert/return clauses and aggregate arguments. Entity
/// variables and event aliases resolve into the matched events.
class MatchEvalContext : public EvalContext {
 public:
  MatchEvalContext(const AnalyzedQuery& aq, const PatternMatch& match)
      : aq_(aq), match_(match) {}

  Result<Value> ResolveRef(const Expr& ref) const override;

  /// Zero-copy read of `expr` when it is an analyzed reference to a
  /// string attribute the matched event carries: the string `ResolveRef`
  /// would copy into its Value. nullptr for any other expression.
  const std::string* ResolveStringRef(const Expr& expr) const;

 private:
  const AnalyzedQuery& aq_;
  const PatternMatch& match_;
};

/// Context for expressions evaluated at window close: stateful alert /
/// return clauses, invariant statements, and cluster point expressions.
///
/// `ss[k]` resolves into `history` (front = the window being closed);
/// indices beyond the retained history resolve to null. Group-by keys
/// resolve to the group's key values; invariant variables to the group's
/// invariant environment; `cluster.*` to the cluster outcome.
class WindowEvalContext : public EvalContext {
 public:
  WindowEvalContext(const AnalyzedQuery& aq,
                    const std::deque<WindowState>* history,
                    const std::vector<Value>* group_key_values,
                    const std::vector<Value>* invariant_env,
                    const ClusterOutcome* cluster)
      : aq_(aq),
        history_(history),
        group_key_values_(group_key_values),
        invariant_env_(invariant_env),
        cluster_(cluster) {}

  Result<Value> ResolveRef(const Expr& ref) const override;

 private:
  const AnalyzedQuery& aq_;
  const std::deque<WindowState>* history_;
  const std::vector<Value>* group_key_values_;
  const std::vector<Value>* invariant_env_;  ///< may be null
  const ClusterOutcome* cluster_;            ///< may be null
};

/// Context that substitutes pre-computed aggregate results when evaluating
/// state-field expressions at window close. `values[i]` is the result of
/// the call at `sites[i]`; a call resolves by pointer identity (each
/// aggregate call in the AST is a distinct site), found by a scan of the
/// handful of sites a state block has.
class AggFinishContext : public EvalContext {
 public:
  AggFinishContext(const std::vector<const Expr*>* sites,
                   const std::vector<Value>* values)
      : sites_(sites), values_(values) {}

  Result<Value> ResolveRef(const Expr& ref) const override;
  Result<Value> ResolveAggregate(const Expr& call) const override;

 private:
  const std::vector<const Expr*>* sites_;
  const std::vector<Value>* values_;
};

/// Collects the aggregate call sites of `expr` in evaluation order.
void CollectAggregateSites(const Expr& expr, std::vector<const Expr*>* out);

}  // namespace saql

#endif  // SAQL_ENGINE_EVAL_CONTEXTS_H_
