#ifndef SAQL_ANALYSIS_QUERY_ANALYSIS_H_
#define SAQL_ANALYSIS_QUERY_ANALYSIS_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "engine/compiled_query.h"

namespace saql {

/// Lowers the polymorphic `name` attribute to the entity's concrete field
/// (`exe_name` for processes, `path` for files) so differently spelled
/// constraints land in one satisfiability / canonicalization group. Shared
/// by the per-query satisfiability pass and the fleet analyzer's slot
/// normalization.
FieldId CanonicalEntityFieldId(EntityType type, FieldId id);

/// Static analysis over one compiled query: runs after the semantic analyzer
/// and compilation, before scheduling. All passes are conservative — an
/// error-severity diagnostic is only emitted when the query is *provably*
/// broken under the engine's constraint semantics (LIKE matching is
/// case-insensitive; a constraint on an attribute the entity type lacks is
/// false), so rejecting on errors can never lose a query that could alert.
class QueryAnalysis {
 public:
  /// Runs every lint pass and returns the findings, errors first; see
  /// `Diagnostic` for the code table.
  static std::vector<Diagnostic> Lint(const CompiledQuery& query);
};

}  // namespace saql

#endif  // SAQL_ANALYSIS_QUERY_ANALYSIS_H_
