// SaqlEngine::Session / QueryHandle: the push-driven streaming lifecycle
// behind the engine facade. Each session owns a SessionContext — its
// private symbol table, query registry, scheduler and groups, executor,
// statistics, and recording pipeline — so any number of sessions run
// concurrently against one EngineCore, sharing only the immutable
// analyzed queries.
//
// Every session drives one execution path on its own thread: one
// ConcurrentQueryScheduler groups its queries, one StreamExecutor delivers
// each pushed batch to the groups, and every query alerts straight to the
// sink as it fires. Between calls nothing runs, so dynamic query
// add/remove, rotation and statistics touch the executor and the groups
// directly.
//
// Symbol table: the session's queries are bound to its own Interner when
// they are wired, and read every event's symbols through it. Rotation is
// local and synchronous: at the top of a Push whose table has reached
// `interner_rotate_bytes`, the session clears the table (a new
// generation), re-binds every query and rebuilds its index probe groups
// before the batch is processed.

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "core/interner.h"
#include "engine/engine.h"
#include "parser/analyzer.h"
#include "storage/durable_log.h"

namespace saql {

struct SaqlEngine::Session::SessionContext {
  /// One query of the session, alive for the session's whole lifetime
  /// (removal deactivates it and frees its execution state, but keeps the
  /// entry so handles and per-query stats survive).
  struct SessionQuery {
    std::string name;
    /// The executing instance; freed on removal.
    std::unique_ptr<CompiledQuery> instance;
    bool active = true;
    size_t slot = 0;  ///< index in `queries` (== handle slot)
    CompiledQuery::QueryStats final_stats;  ///< frozen at removal/close
    AlertSink tap;                          ///< per-handle sink
    std::unique_ptr<QueryHandle> handle;
    /// Non-error lint findings from attach time (errors rejected before
    /// this record was created).
    std::vector<Diagnostic> diagnostics;
  };

  EngineCore* core = nullptr;
  Session* session = nullptr;
  SessionOptions sopts;  ///< per-session overrides, resolved in Open
  /// The core's id for this session; 0 until Open succeeds and after
  /// Close.
  uint64_t id = 0;
  /// The session's symbol table: every query of the session is bound to
  /// it, and only this session's thread touches it.
  Interner interner;
  Timestamp advanced_watermark = INT64_MIN;

  std::vector<std::unique_ptr<SessionQuery>> queries;
  std::unordered_map<std::string, SessionQuery*> by_name;
  /// The active queries in attach order, with their canonical forms: the
  /// fleet an incoming query is checked against.
  Fleet fleet;

  /// Query grouping (master-dependent scheme) and the executor that
  /// delivers every pushed batch to the groups.
  std::unique_ptr<ConcurrentQueryScheduler> scheduler;
  std::unique_ptr<StreamExecutor> executor;

  /// Durable recording (record path resolved from Options +
  /// SessionOptions). A recording failure is sticky and *non-fatal*: the
  /// session stops appending but keeps serving queries
  /// (`recording_status` carries the first error).
  std::unique_ptr<DurableLogWriter> recorder;
  Status recording_status;
  /// Record path claimed in the process-wide collision registry; empty
  /// when recording is off. Released at Close (or teardown on a failed
  /// open).
  std::string reserved_path;

  ~SessionContext() {
    // Failed-open teardown: Close() clears these on the normal path.
    if (!reserved_path.empty()) {
      EngineCore::ReleaseRecordPath(reserved_path);
    }
    if (id != 0) core->UnregisterSession(id);
  }

  // -------------------------------------------------------------------
  // Wiring.

  /// This session's alert destination: the per-session sink when one was
  /// installed, the engine-wide (serialized) funnel otherwise.
  void EmitAlert(const Alert& a) {
    if (sopts.alert_sink) {
      sopts.alert_sink(a);
    } else {
      core->Emit(a);
    }
  }

  /// Points one query's symbols, errors and alerts at the session: its
  /// constraints bind to the session's table, every alert goes to the
  /// session's sink, then to the query's own tap. Shared by session open
  /// and mid-stream AddQuery.
  void WireQuery(SessionQuery* sq) {
    CompiledQuery* q = sq->instance.get();
    q->ReInternSymbols(interner);
    q->SetErrorReporter(core->errors());
    q->SetAlertSink([this, sq](const Alert& a) {
      EmitAlert(a);
      if (sq->tap) sq->tap(a);
    });
  }

  Status Open() {
    const EngineOptions& opts = core->options();

    // Resolve the recording destination: per-session override, engine
    // default, or off. Claim it in the process-wide collision registry
    // before touching the filesystem — two live writers interleaving on
    // one log would corrupt it.
    std::string record_path =
        sopts.no_record
            ? std::string()
            : (!sopts.record_path.empty() ? sopts.record_path
                                          : opts.record_path);
    if (!record_path.empty()) {
      SAQL_RETURN_IF_ERROR(EngineCore::ReserveRecordPath(record_path));
      reserved_path = record_path;
      DurableLogWriter::Options ropts;
      ropts.sync =
          !sopts.record_path.empty() ? sopts.record_sync : opts.record_sync;
      ropts.force_stale_wal =
          !sopts.record_path.empty() ? sopts.record_force : opts.record_force;
      ropts.backend = opts.file_backend;
      recorder = std::make_unique<DurableLogWriter>(record_path, ropts);
      if (!recorder->status().ok()) {
        // Degrade: the session still opens and serves queries.
        recording_status = recorder->status();
      }
    }

    // Snapshot the engine's registered queries as this session's set,
    // compiling a fresh instance of each (sessions never share mutable
    // execution state; the analyzed queries and their canonical forms are
    // immutable and shared).
    fleet = core->SnapshotRegistry();
    for (const FleetEntry& reg : fleet.entries()) {
      auto sq = std::make_unique<SessionQuery>();
      sq->name = reg.name;
      SAQL_ASSIGN_OR_RETURN(
          sq->instance,
          CompiledQuery::Create(reg.aq, reg.name, opts.query_options));
      sq->slot = queries.size();
      sq->handle.reset(new QueryHandle(session, sq->slot, sq->name));
      by_name[sq->name] = sq.get();
      queries.push_back(std::move(sq));
    }

    BuildExecution();
    id = core->RegisterSession();
    return Status::Ok();
  }

  void BuildExecution() {
    const EngineOptions& opts = core->options();
    ConcurrentQueryScheduler::Options so;
    so.enable_grouping = opts.enable_grouping;
    so.enable_member_index = opts.enable_member_index;
    scheduler = std::make_unique<ConcurrentQueryScheduler>(so);
    executor = std::make_unique<StreamExecutor>(
        StreamExecutor::Options{opts.enable_routing});
    for (auto& sq : queries) {
      WireQuery(sq.get());
      scheduler->AddQuery(sq->instance.get());
    }
    scheduler->BuildGroups();
    for (QueryGroup* g : scheduler->groups()) executor->Subscribe(g);
    executor->BeginStream();
  }

  // -------------------------------------------------------------------
  // Streaming.

  /// Rotates the symbol table once it holds `interner_rotate_bytes`, then
  /// re-binds every live query and rebuilds the index probe groups, so
  /// the next event is compared under the new generation throughout.
  void MaybeRotate() {
    const size_t bound = core->options().interner_rotate_bytes;
    if (bound == 0 || interner.payload_bytes() < bound) return;
    interner.Rotate();
    for (auto& sq : queries) {
      if (sq->active) sq->instance->ReInternSymbols(interner);
    }
    scheduler->ReindexAllGroups();
  }

  Status Push(Event* events, size_t count) {
    MaybeRotate();
    if (count == 0) return Status::Ok();
    // Record-ahead: persist before query processing sees the batch, so a
    // crash never alerts on an event the log lost.
    if (recorder != nullptr && recording_status.ok()) {
      recording_status = recorder->Append(events, count);
    }
    executor->ProcessBatch(events, count);
    return Status::Ok();
  }

  Status AdvanceWatermark(Timestamp ts) {
    if (executor->AdvanceWatermark(ts)) advanced_watermark = ts;
    return Status::Ok();
  }

  // -------------------------------------------------------------------
  // Dynamic query lifecycle.

  Result<QueryHandle*> AddQuery(AnalyzedQueryPtr aq, const std::string& name,
                                std::vector<Diagnostic>* diagnostics) {
    if (by_name.count(name) != 0) {
      return Status::AlreadyExists("query '" + name +
                                   "' already exists in this session");
    }
    // Admission (compile, lint, fleet check against this session's active
    // queries) runs before any scheduler or executor wiring, so a rejected
    // query leaves the session exactly as it was.
    std::vector<Diagnostic> findings;
    std::vector<Diagnostic>* out = diagnostics != nullptr ? diagnostics
                                                          : &findings;
    SAQL_ASSIGN_OR_RETURN(EngineCore::PreparedQuery prepared,
                          core->PrepareQuery(std::move(aq), name, fleet, out));
    auto sq = std::make_unique<SessionQuery>();
    sq->name = name;
    sq->instance = std::move(prepared.instance);
    sq->diagnostics = *out;
    WireQuery(sq.get());
    // A new group means a new stream subscription: the executor's dispatch
    // index re-registers before the next batch. An existing group keeps
    // its subscription (the new member shares its structural envelope)
    // but had its ConstraintIndex rebuilt.
    bool created = false;
    QueryGroup* g = scheduler->AddQueryDynamic(sq->instance.get(), &created);
    if (created) executor->Subscribe(g);

    // Session-local attach: concurrent sessions are isolated tenants, so
    // the engine-level registry (which future sessions snapshot) is not
    // touched — that is what SaqlEngine::AddQuery between sessions is
    // for.
    sq->slot = queries.size();
    sq->handle.reset(new QueryHandle(session, sq->slot, name));
    QueryHandle* h = sq->handle.get();
    by_name[name] = sq.get();
    queries.push_back(std::move(sq));
    fleet.Add(std::move(prepared.entry));
    return h;
  }

  Status RemoveSlot(size_t slot_index) {
    SessionQuery* sq = queries[slot_index].get();
    if (!sq->active) {
      return Status::FailedPrecondition("query '" + sq->name +
                                        "' was already removed");
    }
    sq->final_stats = sq->instance->stats();
    // An emptied group must leave the dispatch index before it dies; a
    // surviving one had its index rebuilt over the remaining members.
    std::unique_ptr<QueryGroup> emptied;
    scheduler->RemoveQuery(sq->instance.get(), &emptied);
    if (emptied) executor->Unsubscribe(emptied.get());
    sq->instance.reset();
    sq->active = false;
    fleet.Remove(sq->name);
    return Status::Ok();
  }

  // -------------------------------------------------------------------
  // Statistics.

  CompiledQuery::QueryStats SlotStats(size_t slot_index) const {
    const SessionQuery& sq = *queries[slot_index];
    return sq.active ? sq.instance->stats() : sq.final_stats;
  }

  std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
  QueryStats() const {
    std::vector<std::pair<std::string, CompiledQuery::QueryStats>> out;
    out.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      out.emplace_back(queries[i]->name, SlotStats(i));
    }
    return out;
  }

  // -------------------------------------------------------------------
  // Close.

  Status Close() {
    if (recorder != nullptr) {
      Status st = recorder->Close();
      if (!st.ok() && recording_status.ok()) recording_status = st;
    }
    if (!reserved_path.empty()) {
      EngineCore::ReleaseRecordPath(reserved_path);
      reserved_path.clear();
    }
    executor->FinishStream();
    // Freeze every live query's stats.
    for (auto& sq : queries) {
      if (sq->active) sq->final_stats = sq->instance->stats();
    }
    // Publish the run to the engine-level accessors (last close wins)
    // before deactivating.
    EngineCore::RunStats run;
    run.exec = executor->stats();
    run.num_groups = scheduler->num_groups();
    run.indexed_groups = scheduler->num_indexed_groups();
    run.forward_ratio = scheduler->ForwardRatio();
    run.query_stats = QueryStats();
    core->PublishRun(std::move(run));
    for (auto& sq : queries) sq->active = false;
    core->UnregisterSession(id);
    id = 0;
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------
// Session: thin forwarding layer over SessionContext, plus the open_
// lifecycle guard.

SaqlEngine::Session::Session(SaqlEngine* engine, SessionOptions options)
    : engine_(engine), impl_(new SessionContext()) {
  impl_->core = &engine->core_;
  impl_->session = this;
  impl_->sopts = std::move(options);
}

SaqlEngine::Session::~Session() {
  if (open_) Close();  // best effort; errors have nowhere to go
}

Status SaqlEngine::Session::OpenInternal() { return impl_->Open(); }

uint64_t SaqlEngine::Session::id() const { return impl_->id; }

Timestamp SaqlEngine::Session::max_event_ts() const {
  return impl_->executor->max_event_ts();
}

Status SaqlEngine::Session::Push(Event* events, size_t count) {
  if (!open_) return Status::FailedPrecondition("session is closed");
  return impl_->Push(events, count);
}

Status SaqlEngine::Session::AdvanceWatermark(Timestamp ts) {
  if (!open_) return Status::FailedPrecondition("session is closed");
  return impl_->AdvanceWatermark(ts);
}

Status SaqlEngine::Session::Flush() {
  if (!open_) return Status::FailedPrecondition("session is closed");
  return Status::Ok();
}

Result<SaqlEngine::QueryHandle*> SaqlEngine::Session::AddQuery(
    const std::string& text, const std::string& name,
    std::vector<Diagnostic>* diagnostics) {
  if (!open_) return Status::FailedPrecondition("session is closed");
  SAQL_ASSIGN_OR_RETURN(AnalyzedQueryPtr aq, CompileSaql(text));
  return impl_->AddQuery(std::move(aq), name, diagnostics);
}

Result<SaqlEngine::QueryHandle*> SaqlEngine::Session::AddAnalyzedQuery(
    AnalyzedQueryPtr aq, const std::string& name,
    std::vector<Diagnostic>* diagnostics) {
  if (!open_) return Status::FailedPrecondition("session is closed");
  return impl_->AddQuery(std::move(aq), name, diagnostics);
}

Status SaqlEngine::Session::RemoveQuery(const std::string& name) {
  if (!open_) return Status::FailedPrecondition("session is closed");
  auto it = impl_->by_name.find(name);
  if (it == impl_->by_name.end()) {
    return Status::NotFound("no query named '" + name + "' in this session");
  }
  return impl_->RemoveSlot(it->second->slot);
}

SaqlEngine::QueryHandle* SaqlEngine::Session::handle(
    const std::string& name) {
  auto it = impl_->by_name.find(name);
  return it == impl_->by_name.end() ? nullptr : it->second->handle.get();
}

Status SaqlEngine::Session::Close() {
  if (!open_) return Status::FailedPrecondition("session already closed");
  open_ = false;
  return impl_->Close();
}

Timestamp SaqlEngine::Session::watermark() const {
  return impl_->advanced_watermark;
}

Status SaqlEngine::Session::recording_status() const {
  return impl_->recording_status;
}

uint64_t SaqlEngine::Session::recorded_events() const {
  return impl_->recorder != nullptr ? impl_->recorder->appended_events()
                                    : 0;
}

uint64_t SaqlEngine::Session::durable_events() const {
  return impl_->recorder != nullptr ? impl_->recorder->durable_seq() : 0;
}

ExecutorStats SaqlEngine::Session::executor_stats() const {
  return impl_->executor->stats();
}

size_t SaqlEngine::Session::num_active_queries() const {
  size_t n = 0;
  for (const auto& sq : impl_->queries) n += sq->active ? 1 : 0;
  return n;
}

size_t SaqlEngine::Session::num_groups() const {
  return impl_->scheduler->num_groups();
}

size_t SaqlEngine::Session::num_indexed_groups() const {
  return impl_->scheduler->num_indexed_groups();
}

double SaqlEngine::Session::forward_ratio() const {
  return impl_->scheduler->ForwardRatio();
}

Interner::Stats SaqlEngine::Session::interner_stats() const {
  return impl_->interner.stats();
}

std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
SaqlEngine::Session::query_stats() const {
  return impl_->QueryStats();
}

// ---------------------------------------------------------------------
// QueryHandle.

bool SaqlEngine::QueryHandle::active() const {
  return session_->impl_->queries[slot_]->active;
}

CompiledQuery::QueryStats SaqlEngine::QueryHandle::stats() const {
  return session_->impl_->SlotStats(slot_);
}

void SaqlEngine::QueryHandle::SetAlertSink(AlertSink sink) {
  session_->impl_->queries[slot_]->tap = std::move(sink);
}

const std::vector<Diagnostic>& SaqlEngine::QueryHandle::diagnostics() const {
  return session_->impl_->queries[slot_]->diagnostics;
}

Status SaqlEngine::QueryHandle::Cancel() {
  if (!session_->open_) {
    return Status::FailedPrecondition("session is closed");
  }
  return session_->impl_->RemoveSlot(slot_);
}

}  // namespace saql
