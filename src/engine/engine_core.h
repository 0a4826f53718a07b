#ifndef SAQL_ENGINE_ENGINE_CORE_H_
#define SAQL_ENGINE_ENGINE_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/fleet_analysis.h"
#include "engine/alert.h"
#include "engine/compiled_query.h"
#include "engine/error_reporter.h"
#include "parser/analyzer.h"
#include "storage/file_backend.h"
#include "storage/wal.h"

namespace saql {

/// Engine-wide configuration, shared by every session the engine opens.
/// (Aliased as `SaqlEngine::Options` — see engine.h for the facade.)
struct EngineOptions {
  /// Group compatible queries under the master-dependent-query scheme.
  bool enable_grouping = true;
  /// Route events through the executor's (object type, op) dispatch
  /// index so groups only see events their master pattern can match;
  /// disabled = broadcast delivery (the ablation baseline).
  bool enable_routing = true;
  /// Member-side matching through a shared per-group `ConstraintIndex`:
  /// the group's member constraint conjunctions are factored into
  /// deduplicated predicate slots at BuildGroups time (exact interned
  /// equality collapses to one symbol probe per field, residuals
  /// evaluate once per event instead of once per member). Disabled =
  /// brute-force member loops (the differential-test and A7 ablation
  /// baseline). Alert output and per-member stats are identical either
  /// way. Dynamic session add/remove rebuilds the affected group's
  /// index.
  bool enable_member_index = true;
  /// Per-session bound on symbol-table bytes for long-running
  /// deployments: each session owns its table, and when the table's
  /// payload bytes have reached this bound at the top of a `Push`, the
  /// session rotates it there — clears it, draws a new generation,
  /// re-binds its queries' symbols and rebuilds its index probe groups —
  /// before the batch is processed. Other sessions are unaffected.
  /// 0 (the default) leaves the table unbounded.
  size_t interner_rotate_bytes = 0;
  /// Compiled-query tuning.
  CompiledQuery::Options query_options;
  /// Events pulled from the source per batch (Run only; sessions batch
  /// however the caller pushes).
  size_t batch_size = 1024;
  /// Durable recording: when non-empty, every event pushed into a
  /// session is also appended to a durable log at this path (WAL +
  /// background columnar segmentation, storage/durable_log.h) before
  /// query processing sees it. Recording failures degrade gracefully:
  /// the session keeps serving queries, the recording is marked failed
  /// (`Session::recording_status()`), already-acked data stays
  /// recoverable. With concurrent sessions, each session needs its own
  /// path (override per session) — a second session opening the same
  /// live path fails its `OpenSession`.
  std::string record_path;
  /// WAL sync/ack policy for the recording (wal.h): `always` acks only
  /// durable events, `group` batches the fsync barrier, `none` defers
  /// durability to segment/close barriers.
  SyncPolicy record_sync;
  /// Clean up leftover `.wal.<N>` files from an unrecovered earlier
  /// incarnation of the record path instead of refusing to open over
  /// them (the recording equivalent of `--force`; the stale WAL data is
  /// lost). Off by default: an unrecovered log is evidence of a crash
  /// and silently discarding its tail would defeat the durability
  /// contract — run recovery first.
  bool record_force = false;
  /// File layer for the recording (nullptr = real files); tests inject
  /// a FaultInjectionFileBackend here.
  FileBackend* file_backend = nullptr;
};

/// Per-session overrides of the engine-wide defaults, for multi-tenant
/// deployments where concurrently open sessions need different recording
/// or alert destinations.
struct SessionOptions {
  /// Accepted and ignored: every session runs one lane, on the thread
  /// that drives it. Kept so callers written against multi-lane sessions
  /// still compile; their sessions behave exactly like default ones.
  size_t num_shards = 0;
  /// Recording destination for this session; empty = the engine
  /// default. Two live sessions must not record to the same path.
  std::string record_path;
  /// Disables recording for this session even when the engine default
  /// sets a path.
  bool no_record = false;
  /// WAL sync policy when `record_path` is set here (otherwise the
  /// engine default applies).
  SyncPolicy record_sync;
  /// Stale-WAL cleanup for `record_path` set here (see
  /// EngineOptions::record_force).
  bool record_force = false;
  /// Alert destination for this session; null = the engine-wide sink.
  /// Called from this session's thread only, so per-session sinks need
  /// no locking of their own.
  AlertSink alert_sink;
};

/// The process-wide, concurrency-safe half of the engine: options, the
/// query registry, compilation, the shared alert funnel, and the open
/// session registry. Every mutable member is guarded — any number of
/// sessions may run against one core from independent threads.
/// Per-session execution state (symbol table, scheduler, groups,
/// executor, dispatch index, stats, recording) lives in the session's own
/// `SessionContext` (session.cc) and is never shared.
class EngineCore {
 public:
  /// A query that passed admission: its fleet entry (canonical form
  /// included) and its compiled instance.
  struct PreparedQuery {
    FleetEntry entry;
    std::unique_ptr<CompiledQuery> instance;
  };

  explicit EngineCore(EngineOptions options);

  const EngineOptions& options() const { return options_; }
  ErrorReporter* errors() { return &errors_; }
  const ErrorReporter& errors() const { return errors_; }

  // Query registry ----------------------------------------------------

  /// The one query-admission path, shared by `RegisterQuery` and
  /// `Session::AddQuery`: compile with `query_options`, lint (error
  /// findings reject with InvalidArgument), then the fleet check against
  /// `fleet` (SA051 only when `alert_cooldown <= 0`; fleet findings never
  /// reject). `diagnostics`, if set, receives every finding.
  Result<PreparedQuery> PrepareQuery(
      AnalyzedQueryPtr aq, const std::string& name,
      const Fleet& fleet, std::vector<Diagnostic>* diagnostics) const;

  /// Admits a query through `PrepareQuery` against the registered fleet
  /// and registers it under `name` (AlreadyExists, after the lint gate,
  /// when taken). The compiled instance is dropped: sessions opened later
  /// compile their own; open sessions are unaffected.
  Status RegisterQuery(AnalyzedQueryPtr aq, const std::string& name,
                       std::vector<Diagnostic>* diagnostics);

  /// The registered queries at this instant. Entries share their analyzed
  /// query and canonical form with the registry (both immutable, safe to
  /// compile from concurrently).
  Fleet SnapshotRegistry() const;

  size_t num_queries() const;

  // Alert funnel ------------------------------------------------------

  /// Installs the engine-wide sink (default: buffer into `alerts()`).
  /// Not safe to call with sessions emitting.
  void SetAlertSink(AlertSink sink);

  /// Delivers one alert to the engine-wide sink. Thread-safe: sessions
  /// without a per-session sink emit through here, and their threads are
  /// serialized so multi-session output does not interleave mid-alert.
  void Emit(const Alert& a);

  /// Alerts buffered by the default sink. Read when no session is
  /// emitting (e.g. after close).
  const std::vector<Alert>& alerts() const { return alerts_; }

  // Session registry --------------------------------------------------

  /// Registers a new open session and returns its id.
  uint64_t RegisterSession();

  /// Removes a closed session from the registry.
  void UnregisterSession(uint64_t id);

  /// Open sessions right now.
  size_t session_count() const;

  /// Sessions ever opened (the Run() freshness guard).
  uint64_t sessions_opened() const;

  // Record-path collision guard ---------------------------------------

  /// Claims `path` for one live recording; AlreadyExists when another
  /// live session (in this process) is recording there. Process-wide —
  /// two engines in one process contend too, which is the point.
  static Status ReserveRecordPath(const std::string& path);
  static void ReleaseRecordPath(const std::string& path);

  // Last-closed-session statistics ------------------------------------

  struct RunStats {
    ExecutorStats exec;
    size_t num_groups = 0;
    size_t indexed_groups = 0;
    double forward_ratio = 0.0;
    std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
        query_stats;
  };

  /// Publishes a closing session's stats (last close wins).
  void PublishRun(RunStats stats);

  /// The last published stats. The reference is stable (members are
  /// updated in place under the stats mutex); read it when no session is
  /// closing, e.g. after the engine quiesced.
  const RunStats& last_run() const { return last_run_; }

 private:
  const EngineOptions options_;
  ErrorReporter errors_;

  mutable std::mutex registry_mu_;
  Fleet registered_;
  /// The names in `registered_`: the duplicate-name check without a scan.
  std::unordered_set<std::string> registered_names_;

  std::mutex sink_mu_;
  AlertSink sink_;
  std::vector<Alert> alerts_;

  mutable std::mutex sessions_mu_;
  std::set<uint64_t> sessions_;
  uint64_t next_session_id_ = 1;
  std::atomic<uint64_t> sessions_opened_{0};

  mutable std::mutex stats_mu_;
  RunStats last_run_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_ENGINE_CORE_H_
