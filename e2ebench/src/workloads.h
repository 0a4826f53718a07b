#ifndef SAQL_E2EBENCH_WORKLOADS_H_
#define SAQL_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/status.h"
#include "core/time_util.h"
#include "storage/wal.h"

namespace e2e {

struct QuerySpec {
  std::string name;
  std::string text;
};

/// One change of the live query set at a fixed input position: just
/// before the event at `position` is pushed, `remove` (when non-empty)
/// is retracted and `add` (when its name is non-empty) is attached.
struct ChurnOp {
  size_t position = 0;
  std::string remove;
  QuerySpec add;
};

/// A benchmark workload: the query set, how the session is opened, and
/// the input, generated in-process from the seed before any timing.
struct Workload {
  std::string name;
  std::vector<QuerySpec> queries;
  /// Record every pushed event through the durable WAL pipeline.
  bool record = false;
  /// The input, in event-time order.
  saql::EventBatch events;
  saql::Timestamp first_ts = 0;
  saql::Timestamp last_ts = 0;
  std::vector<ChurnOp> churn;
  /// Open-loop offered rate (events/s): a constant near half of the
  /// closed-loop throughput measured when the benchmark was written.
  double open_rate_eps = 0;
  /// Queries that must raise at least one alert in every pass.
  std::vector<std::string> must_alert;
};

/// WAL sync policy of recorded sessions: group commit.
saql::SyncPolicy RecordSync();

/// Events per Push: a collector's batch. The per-module probes of the
/// traced run call in batches of the same size.
inline constexpr size_t kBatchEvents = 256;

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`. `scale` shrinks the input (1 = the
/// benchmark's size; the self-test uses small scales).
saql::Status MakeWorkload(const std::string& name, uint64_t seed,
                          double scale, Workload* out);

/// A directory created fresh under `base` for one process (record paths,
/// span dumps) and removed with everything in it on
/// destruction, so a crashed run's leftover WAL files can never reach a
/// later run's record path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  /// A path inside the directory that no earlier call returned.
  std::string NewPath(const std::string& stem);

 private:
  std::string path_;
  uint64_t next_ = 0;
};

}  // namespace e2e

#endif  // SAQL_E2EBENCH_WORKLOADS_H_
