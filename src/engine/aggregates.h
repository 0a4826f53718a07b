#ifndef SAQL_ENGINE_AGGREGATES_H_
#define SAQL_ENGINE_AGGREGATES_H_

#include <memory>
#include <string>

#include "core/result.h"
#include "core/value.h"

namespace saql {

/// Incremental aggregate over the events matched into one (group, window)
/// cell of the state maintainer. One instance per aggregate call site per
/// cell; `Add` runs on the stream path, `Finish` at window close.
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Folds one input value in. Null inputs are ignored (an event without
  /// the attribute contributes nothing).
  virtual void Add(const Value& v) = 0;

  /// The aggregate result for the window. Empty windows produce the
  /// aggregate's natural zero (0 for count/sum, null for avg/min/max,
  /// empty set for set()).
  virtual Value Finish() const = 0;
};

/// Creates an aggregator by function name ("avg", "sum", "count", "min",
/// "max", "stddev", "set", "count_distinct"); names are those accepted by
/// `IsAggregateFunction`.
Result<std::unique_ptr<Aggregator>> MakeAggregator(const std::string& name);

}  // namespace saql

#endif  // SAQL_ENGINE_AGGREGATES_H_
