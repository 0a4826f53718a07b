#ifndef SAQL_ENGINE_ENGINE_H_
#define SAQL_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/interner.h"
#include "engine/alert.h"
#include "engine/compiled_query.h"
#include "engine/engine_core.h"
#include "engine/error_reporter.h"
#include "engine/scheduler.h"
#include "storage/file_backend.h"
#include "storage/wal.h"
#include "stream/event_source.h"
#include "stream/stream_executor.h"

namespace saql {

/// The SAQL anomaly query engine (Fig. 1 of the paper): the public facade
/// tying together the parser, multievent matcher, state maintainer,
/// concurrent query scheduler, and error reporter.
///
/// The engine is a *deployed* stream-querying service: monitoring events
/// arrive continuously, and analysts submit, inspect, and retract anomaly
/// queries against the live stream. The primary API is therefore a
/// push-driven **session**:
///
/// ```
///   SaqlEngine engine;
///   engine.SetAlertSink([](const Alert& a) { std::cout << a.ToString(); });
///   engine.AddQuery(query_text, "exfiltration");           // before open
///   auto session = engine.OpenSession().value();
///   session->Push(batch.data(), batch.size());             // live events
///   session->AdvanceWatermark(max_event_ts);               // close windows
///   auto h = session->AddQuery(other_text, "lateral");     // mid-stream
///   (*h)->SetAlertSink(per_query_sink);                    // per-query tap
///   session->RemoveQuery("exfiltration");                  // retract
///   session->Close();
/// ```
///
/// **Sessions are concurrent.** `OpenSession` may be called any number of
/// times; the resulting sessions run simultaneously from independent
/// threads, one driving thread per session (each session's own methods
/// keep their single-caller-thread contract). Sessions are fully isolated
/// tenants — each owns its symbol table (`Interner`), query registry
/// snapshot, scheduler and groups, dispatch index, executor, statistics,
/// and recording pipeline — and share only the immutable analyzed-query
/// handles and the serialized engine-wide alert sink. Each session's
/// alert sequence and per-query `QueryStats` are bit-identical to the
/// same session run solo.
/// Per-session options (`SessionOptions`: record path, alert sink)
/// override the engine defaults at `OpenSession`; two live sessions must
/// not record to the same path (the second open fails cleanly).
///
/// Each session runs one lane: its own thread delivers every pushed batch
/// to its query groups over the totally ordered stream, and every query
/// alerts as it fires. Parallelism comes from running sessions side by
/// side, not from splitting one session's stream. A session opened after
/// others closed starts from fresh stream state, recompiling the
/// registered queries.
///
/// Symbol-table rotation (`Options::interner_rotate_bytes`) is a
/// per-session bound: when a session's own table has reached it at the
/// top of a push, that session rotates its table, re-binds its queries'
/// symbols and rebuilds its index probe groups before the batch is
/// processed. No other session is touched, and alert output is
/// unaffected by where the rotation lands in the stream.
///
/// `Run(source)` is retained as a thin convenience wrapper: it opens a
/// session, pushes the source to exhaustion (advancing the watermark to
/// the max event time after each batch), and closes — alerts and
/// per-query statistics are bit-identical to driving the session by hand
/// with any batch split. `Run` keeps its historical one-shot contract:
/// calling it twice, or calling it on an engine whose sessions are in
/// use, returns `FailedPrecondition` (long-lived deployments use
/// `OpenSession`).
class SaqlEngine {
 public:
  /// Engine-wide configuration (see engine_core.h for the fields).
  using Options = EngineOptions;

  class Session;

  /// Live handle to one query of an open session, returned by
  /// `Session::AddQuery` and `Session::handle`. Handles are owned by the
  /// session and stay valid until the session object is destroyed —
  /// including after the query was removed, when they keep serving the
  /// final retained statistics (`active()` turns false). Call only from
  /// the owning session's thread.
  class QueryHandle {
   public:
    const std::string& name() const { return name_; }

    /// True until the query is removed (`Cancel`/`RemoveQuery`) or the
    /// session is closed.
    bool active() const;

    /// Statistics for this query: live while active, frozen at their
    /// final values after removal.
    CompiledQuery::QueryStats stats() const;

    /// Additional per-query alert tap: every alert this query emits is
    /// delivered here *as well as* to the session's sink, from the
    /// session's thread. Pass nullptr to clear.
    void SetAlertSink(AlertSink sink);

    /// Removes the query from the session (same as
    /// `Session::RemoveQuery(name())`): group membership, dispatch-index
    /// and constraint-index slots, and partial window state are torn
    /// down; final stats stay readable through this handle.
    Status Cancel();

    /// Non-error static-analysis findings recorded when the query was
    /// attached (warnings, hints, and notes — error findings reject at
    /// AddQuery and never produce a handle).
    const std::vector<Diagnostic>& diagnostics() const;

   private:
    friend class Session;
    QueryHandle(Session* session, size_t slot, std::string name)
        : session_(session), slot_(slot), name_(std::move(name)) {}

    Session* session_;
    size_t slot_;
    std::string name_;
  };

  /// A push-driven run over the engine's query set. Obtained from
  /// `OpenSession`; all methods must be called from one thread (the
  /// session thread, which runs every query of the session itself).
  /// Different sessions of one engine run from different threads
  /// concurrently.
  ///
  /// Lifecycle: `Push`/`AdvanceWatermark` stream data in;
  /// `AddQuery`/`RemoveQuery` change this session's live query set (a
  /// query added mid-stream sees only events pushed after its attach
  /// point and belongs to this session only; a removed query's state is
  /// torn down and its final stats retained); `Close` flushes
  /// end-of-stream (open windows, partial matches) and publishes the run's
  /// statistics to the engine accessors (last close wins). The destructor
  /// closes an open session.
  ///
  /// Watermark contract: `AdvanceWatermark(ts)` finalizes windows ending
  /// at or before `ts`. Callers must push events in non-decreasing
  /// timestamp order and not push events older than an advanced
  /// watermark; under that contract a session's alert sequence is
  /// identical to the batch `Run` ordering with any batch split. A closed
  /// time window never reopens: a stateful query
  /// folds a late match only into its windows still open and counts it in
  /// `QueryStats::late_matches`.
  class Session {
   public:
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Engine-assigned session id (unique per engine, dense from 1) —
    /// the handle the shell and stats use to address one of several
    /// concurrently open sessions.
    uint64_t id() const;

    /// Delivers one batch of events to the live query set, on the calling
    /// thread, and returns once every query has processed it; the buffer
    /// may be reused after the call returns.
    ///
    /// Push writes into the caller's buffer: the session's queries fill
    /// each event's symbol memo (`Event::syms`) in place as they compare
    /// attributes — they read the caller's events, never copies. The memo
    /// is stamped with the session table's generation, so a buffer pushed
    /// to session A and then to session B is refilled in B, never misread.
    /// But one buffer must not be pushed to two sessions at once, from
    /// two threads; give each thread its own copy.
    Status Push(Event* events, size_t count);
    Status Push(EventBatch& batch) {
      return Push(batch.data(), batch.size());
    }

    /// Block-native ingest: pushes the block's rows. Rows materialized
    /// from a columnar block (the v2 event-log replayer's) arrive with an
    /// empty symbol memo and fill it on first read, like any pushed
    /// buffer. `Run` feeds sources through this.
    Status Push(EventBlock& block) {
      if (block.empty()) return Status::Ok();
      return Push(block.MutableRows(), block.size());
    }

    /// Advances event time: windows ending at or before `ts` can close.
    /// Values that do not advance the watermark are ignored.
    Status AdvanceWatermark(Timestamp ts);

    /// A no-op kept for callers written against asynchronous sessions:
    /// every `Push` and `AdvanceWatermark` returns with its work done and
    /// every alert it produced already delivered to the sink.
    Status Flush();

    /// Parses, analyzes, compiles, and attaches a query mid-stream. The
    /// query joins its compatibility group (or starts a new one, with the
    /// dispatch index re-registered) and the group's shared
    /// ConstraintIndex is rebuilt over the widened member list. The
    /// query sees only events pushed after this call, and belongs to
    /// this session alone (concurrent sessions are isolated tenants; use
    /// `SaqlEngine::AddQuery` between sessions for queries every later
    /// session should include). The name must be unique within the
    /// session (including removed queries).
    /// Admission is the engine's one path (`EngineCore::PrepareQuery`),
    /// run before any wiring: compile, lint — error-severity diagnostics
    /// (unsatisfiable constraints, dead patterns) reject the query with
    /// the session state untouched — then the fleet check (SA050/SA051)
    /// against this session's active queries. The remaining findings
    /// attach to the returned handle (`QueryHandle::diagnostics`). When
    /// `diagnostics` is non-null it receives the full finding list either
    /// way — on rejection this is how callers render the findings.
    Result<QueryHandle*> AddQuery(const std::string& text,
                                  const std::string& name,
                                  std::vector<Diagnostic>* diagnostics =
                                      nullptr);
    Result<QueryHandle*> AddAnalyzedQuery(AnalyzedQueryPtr aq,
                                          const std::string& name,
                                          std::vector<Diagnostic>*
                                              diagnostics = nullptr);

    /// Retracts a live query: its group membership, routing/constraint
    /// index slots, and partial window state are torn down (open windows
    /// are dropped, not flushed); alerts it already emitted were delivered
    /// as they fired. Final `QueryStats` remain readable via its handle and
    /// `query_stats()`.
    Status RemoveQuery(const std::string& name);

    /// The handle for `name`, or nullptr when no such query was ever part
    /// of this session. Removed queries keep their (inactive) handle.
    QueryHandle* handle(const std::string& name);

    /// Ends the stream: every live query flushes end-of-stream state and
    /// the run's statistics are published to the engine accessors.
    /// Idempotent error: closing twice returns FailedPrecondition.
    Status Close();

    bool open() const { return open_; }

    /// The highest watermark advanced so far (INT64_MIN before any).
    Timestamp watermark() const;

    /// Max timestamp of the events pushed so far (INT64_MIN before any) —
    /// the natural `AdvanceWatermark` argument for in-order streams.
    Timestamp max_event_ts() const;

    // Durable recording state (record path from Options/SessionOptions;
    // all Ok/0 when recording is off).
    /// Sticky first recording error — once non-OK the session has
    /// stopped appending to the log but keeps serving queries.
    Status recording_status() const;
    /// Events acked into the recording so far.
    uint64_t recorded_events() const;
    /// Events known durable (WAL-fsynced or in fsynced segments) —
    /// the crash-loss bound is `recorded_events() - durable_events()`.
    uint64_t durable_events() const;

    // Live statistics, consistent between calls: nothing runs then.
    ExecutorStats executor_stats() const;
    size_t num_active_queries() const;
    size_t num_groups() const;
    size_t num_indexed_groups() const;
    double forward_ratio() const;
    /// The session's symbol table: entries, payload bytes, generation,
    /// and the rotations `interner_rotate_bytes` has made.
    Interner::Stats interner_stats() const;
    /// Per-query statistics in registration order, including removed
    /// queries (their final retained stats).
    std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
    query_stats() const;

   private:
    friend class SaqlEngine;
    friend class QueryHandle;

    Session(SaqlEngine* engine, SessionOptions options);

    /// Builds the session's execution state (scheduler, executor); called
    /// by OpenSession before the session is handed out.
    Status OpenInternal();

    struct SessionContext;

    SaqlEngine* engine_;
    bool open_ = false;
    std::unique_ptr<SessionContext> impl_;
  };

  SaqlEngine() : SaqlEngine(Options{}) {}
  explicit SaqlEngine(Options options);
  ~SaqlEngine();

  /// Parses, analyzes, and registers a query for sessions opened later
  /// (or `Run`). The name must be unique; it labels alerts and error
  /// reports. Returns FailedPrecondition while any session is open (use
  /// `Session::AddQuery` to attach mid-stream) or after `Run` was used.
  ///
  /// Registration runs the one admission path
  /// (`EngineCore::PrepareQuery`, shared with `Session::AddQuery`):
  /// compile, lint — error-severity findings reject with InvalidArgument
  /// before the name check — and the fleet check (SA050/SA051) against
  /// the registered queries. Pass `diagnostics` to receive every finding
  /// (also on rejection); warnings/hints/notes never reject.
  Status AddQuery(const std::string& text, const std::string& name,
                  std::vector<Diagnostic>* diagnostics = nullptr);

  /// Registers an already-analyzed query (same contract as `AddQuery`).
  Status AddAnalyzedQuery(AnalyzedQueryPtr aq, const std::string& name,
                          std::vector<Diagnostic>* diagnostics = nullptr);

  /// All alerts are delivered here unless a session installs its own
  /// sink (`SessionOptions::alert_sink`). Defaults to buffering in
  /// `alerts()`. The sink is called with a lock held that serializes
  /// concurrent sessions' emissions; install before opening sessions.
  void SetAlertSink(AlertSink sink);

  /// Opens a push-driven session over the registered queries (the set may
  /// be empty; queries can be added mid-stream). Any number of sessions
  /// may be open concurrently, each driven from its own thread; every
  /// session compiles its own query instances against fresh stream
  /// state and its own empty symbol table. The returned session must not
  /// outlive the engine.
  Result<std::unique_ptr<Session>> OpenSession() {
    return OpenSession(SessionOptions{});
  }

  /// Opens a session with per-session overrides (record path, alert sink
  /// — see SessionOptions).
  Result<std::unique_ptr<Session>> OpenSession(SessionOptions options);

  /// Convenience batch wrapper: opens a session, pushes `source` to
  /// exhaustion, closes. One-shot — a second call (or a call after
  /// `OpenSession` was used) returns FailedPrecondition, and at least one
  /// query must be registered.
  Status Run(EventSource* source);

  /// Buffered alerts (only when no custom sink was installed). Read when
  /// no session is emitting — e.g. after the sessions closed.
  const std::vector<Alert>& alerts() const { return core_.alerts(); }

  const ErrorReporter& errors() const { return core_.errors(); }

  /// Open sessions right now.
  size_t session_count() const { return core_.session_count(); }

  // Statistics of the last *closed* session (which `Run` wraps): executor
  // accounting, group structure, and per-query stats. With concurrent
  // sessions the last `Close` wins; read per-session live values from the
  // sessions instead.
  const ExecutorStats& executor_stats() const {
    return core_.last_run().exec;
  }
  size_t num_queries() const { return core_.num_queries(); }
  size_t num_groups() const { return core_.last_run().num_groups; }
  /// Groups whose member matching ran through a shared ConstraintIndex.
  size_t num_indexed_groups() const {
    return core_.last_run().indexed_groups;
  }
  double forward_ratio() const { return core_.last_run().forward_ratio; }
  std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
  query_stats() const {
    return core_.last_run().query_stats;
  }

 private:
  friend class Session;

  EngineCore core_;
  bool ran_ = false;  ///< Run() was used (its documented one-shot latch)
};

}  // namespace saql

#endif  // SAQL_ENGINE_ENGINE_H_
