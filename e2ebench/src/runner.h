#ifndef SAQL_E2EBENCH_RUNNER_H_
#define SAQL_E2EBENCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {

/// One alert as the benchmark's sink saw it.
struct AlertRec {
  saql::Timestamp ts = 0;
  int64_t wall_ns = 0;
  uint64_t hash = 0;        ///< identity: query, group, ts, window, values
  uint64_t query_hash = 0;  ///< query name only
  bool at_close = false;    ///< delivered by Session::Close
};

struct PassOptions {
  bool open_loop = false;
  /// Record spans (the traced run's instrumented pass).
  bool traced = false;
  /// Session lanes (1 = direct); recording defaults to the workload's.
  size_t lanes = 1;
  int record = -1;
  /// Recorded passes of the traced run: the session itself does not
  /// record; the benchmark appends every event to its own
  /// DurableLogWriter right before each Push — the work Session::Push does
  /// first when it records — so spans attribute the recording cost to
  /// storage.
  bool split_record = false;
};

struct PassResult {
  size_t events = 0;
  double wall_s = 0;  ///< measured interval (closed loop: until all results)
  double cpu_s = 0;   ///< process CPU over the same interval, all threads
  std::vector<uint64_t> multiset;  ///< sorted alert hashes
  std::vector<double> latency_ms;  ///< open loop: per alert before Close
  size_t alerts = 0;
  bool must_alert_ok = true;
  // Pass hygiene.
  /// Every event of the first chunk handed to Push had syms.gen == 0.
  bool syms_clean_at_start = false;
  long threads_max = 0;             ///< process threads sampled in the pass
  std::vector<size_t> churn_positions;  ///< input positions of churn ops
  bool record_ok = true;  ///< recording replays to the pushed event count
  std::string record_path;  ///< removed by the time the pass returns
  /// Peak RSS (VmHWM, kB) from the pass's start to its end; -1 when the
  /// peak could not be reset at the start.
  long peak_rss_kb = -1;
  // Engine statistics read before Close.
  size_t groups = 0;
  size_t indexed_groups = 0;
  double forward_ratio = 0;
  double deliveries_per_event = 0;
  double match_ratio = 0;
  // Open loop generator.
  std::vector<double> gen_late_ms;
  size_t backlog_max = 0;
  int32_t root_span = -1;
};

/// Drives one workload through the public SaqlEngine/Session API:
/// session set-up, closed- and open-loop passes, and the per-module
/// probes of the traced run. Every Status-returning engine call counts
/// as an attempted operation; failures count as failed operations.
class Runner {
 public:
  Runner(Workload* workload, ScratchDir* dir, Tracer* tracer);

  /// Time from query texts to an open session: engine construction,
  /// every AddQuery, and OpenSession (the session is then closed and any
  /// recording removed, untimed). Returns seconds, < 0 on failure.
  double MeasureSetup();

  PassResult RunPass(const PassOptions& options);

  /// Counts an operation; prints a failure's status. Returns ok().
  bool Note(const saql::Status& st, const char* what);
  /// Counts a gate check.
  bool Gate(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  Workload& workload() { return *w_; }
  Tracer* tracer() { return tracer_; }
  ScratchDir* dir() { return dir_; }

 private:
  struct Live;
  std::unique_ptr<Live> Open(size_t lanes, bool record);
  void Sink(const saql::Alert& alert);

  Workload* w_;
  ScratchDir* dir_;
  Tracer* tracer_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<AlertRec> alerts_;
  bool closing_ = false;
};

/// File layer of every recording the benchmark makes: real files in the
/// run's scratch directory, written through the page cache, with fsync
/// reduced to a status check (tmpfs semantics; see runner.cc).
saql::FileBackend* RecordBackend();

/// Removes a recording and every `<path>.wal.<N>` beside it; true when
/// nothing of it is left.
bool RemoveRecording(const std::string& path);

}  // namespace e2e

#endif  // SAQL_E2EBENCH_RUNNER_H_
