#ifndef SAQL_ANALYSIS_DIAGNOSTIC_H_
#define SAQL_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "parser/token.h"

namespace saql {

/// Severity of one static-analysis diagnostic.
///
/// Severity is part of each code's contract (a code never changes severity
/// between releases): `kError` marks provably broken queries — the constraint
/// conjunction is unsatisfiable or a pattern can never match — and rejects
/// the query at `AddQuery` time. `kWarning` marks almost-certainly-wrong
/// constructs that still have defined behaviour (vacuous windows, aggregates
/// over constants); warnings attach to the query handle but never reject.
/// `kHint` suggests equivalent simplifications; `kNote` carries informational
/// facts.
enum class Severity : uint8_t {
  kError = 0,
  kWarning = 1,
  kHint = 2,
  kNote = 3,
};

const char* SeverityName(Severity severity);

/// One static-analysis finding. `code` is stable across releases ("SA001");
/// `span` points at the offending source text of the query (1-based
/// line:col, zero span when the construct has no source anchor, e.g. a
/// whole-query note).
///
/// Code registry (see ROADMAP "Static analysis" for the full table):
///   SA001 error   unsatisfiable constraint conjunction
///   SA002 error   dead pattern: refuted by a global constraint
///   SA003 warning dead pattern: no emittable (object type, op) pair
///   SA010 warning vacuous window (below event granularity / gapped slide)
///   SA011 warning aggregate over a constant
///   SA012 warning invariant model over an empty group key
///   SA020 hint    always-true or redundant predicate
///   SA021 hint    constant alert condition
///   SA040 error   cross-type comparison/constraint (never holds)
///   SA041 warning unused pattern variable
///   SA042 warning never-read state field
///   SA043 hint    constant-foldable subexpression
///   SA050 warning exact-duplicate query in the fleet (double alerting)
///   SA051 warning query subsumed by / subsuming another fleet query
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kWarning;
  SourceSpan span;
  std::string message;
  std::string fix_hint;  ///< empty when no mechanical fix applies

  /// "error SA001 at 1:9-24: ..." (one line; fix hint appended when set).
  std::string ToString() const;
};

/// True when any diagnostic is error severity (the AddQuery reject test).
bool HasErrors(const std::vector<Diagnostic>& diagnostics);

/// Counts by severity, for summary lines.
size_t CountSeverity(const std::vector<Diagnostic>& diagnostics,
                     Severity severity);

/// Renders one diagnostic per line, indented by `indent`.
std::string RenderDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              const std::string& indent = "");

}  // namespace saql

#endif  // SAQL_ANALYSIS_DIAGNOSTIC_H_
