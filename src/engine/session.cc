// SaqlEngine::Session / QueryHandle: the push-driven streaming lifecycle
// behind the engine facade. Each session owns a SessionContext — its
// private query registry, per-lane schedulers/groups, executor lanes,
// alert ordering state, statistics, and recording pipeline — so any number
// of sessions run concurrently against one EngineCore, sharing only the
// global interner and the immutable analyzed queries.
//
// Every session drives one execution path: it owns a ShardedStreamExecutor,
// whose every call is one synchronous step over all lanes, and places each
// query on lanes — one (lane, instance) pair per lane it runs on — and
// every open, add, remove and heal is one loop over those placements. At
// one lane the lane runs on the session thread and every query runs its
// primary there, alerting straight to the sink — plain single-threaded
// execution. At N > 1 lanes partitionable queries run a replica on each
// shard lane 0..N-1, and queries that need the full ordered stream run
// their primary on the global lane N. Between steps no lane runs, so
// dynamic query add/remove, rotation heals and statistics touch the lanes
// directly; collected lane alerts are released in deterministic (ts,
// query, group, values) order as the advanced watermark passes them.
//
// Live interner rotation: the top of every Push is the session's quiesce
// point — it applies the rotation policy and, when the global generation
// moved (by this or any other session), re-interns every compiled
// constraint symbol and rebuilds the ConstraintIndex probe groups before
// the batch is processed. Between a rotation and a session's next push,
// matching falls back to string comparison on the generation mismatch, so
// alert output is independent of where the rotation lands.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/interner.h"
#include "engine/engine.h"
#include "engine/shard_merge.h"
#include "parser/analyzer.h"
#include "storage/durable_log.h"
#include "stream/sharded_executor.h"

namespace saql {

namespace {

/// Serialization of an alert's return values; doubles as the `return
/// distinct` row identity (matching CompiledQuery::EmitRuleMatch's key)
/// and as the last ordering tie-breaker.
std::string AlertValueKey(const Alert& alert) {
  std::string key;
  for (const auto& [label, value] : alert.values) {
    key += value.ToString();
    key += '\x1f';
  }
  return key;
}

constexpr size_t kNoMergeHandle = std::numeric_limits<size_t>::max();

}  // namespace

struct SaqlEngine::Session::SessionContext {
  /// One lane a query runs on, and the instance grouped there.
  struct Placement {
    size_t lane = 0;
    CompiledQuery* instance = nullptr;
  };

  /// One query of the session, alive for the session's whole lifetime
  /// (removal deactivates it and frees its execution state, but keeps the
  /// entry so handles and per-query stats survive).
  struct SessionQuery {
    std::string name;
    /// One lane: the executing instance, on lane 0. More lanes: the merge
    /// replica (stateful), the global-lane instance (global), or an
    /// unsubscribed stats anchor (partitionable). Freed on removal.
    std::unique_ptr<CompiledQuery> primary;
    /// Lane replicas, one per shard lane (empty at one lane and for
    /// global mode).
    std::vector<std::unique_ptr<CompiledQuery>> replicas;
    /// Where the query runs: (0, primary) at one lane, (N, primary) for a
    /// global-mode query, else (s, replicas[s]) for every shard lane s.
    /// Cleared on removal.
    std::vector<Placement> placements;
    /// Classification for more than one lane; unused at one lane.
    CompiledQuery::ShardMode mode = CompiledQuery::ShardMode::kPartitionable;
    size_t merge_handle = kNoMergeHandle;
    bool central_distinct = false;
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
  /// The core's liveness record for this session; null until Open
  /// succeeds and after Close.
  EngineCore::SessionSlot* slot = nullptr;
  size_t num_lanes = 1;
  Timestamp advanced_watermark = INT64_MIN;

  std::vector<std::unique_ptr<SessionQuery>> queries;
  std::unordered_map<std::string, SessionQuery*> by_name;
  /// The active queries in attach order, with their canonical forms: the
  /// members an incoming query's fleet check compares against.
  std::vector<FleetEntry> fleet;

  std::unique_ptr<ShardedStreamExecutor> executor;
  /// Query grouping per lane: shard lanes 0..N-1, then the global lane N
  /// (empty until a global-mode query arrives).
  std::vector<std::unique_ptr<ConcurrentQueryScheduler>> schedulers;
  // More than one lane only.
  std::unique_ptr<ShardMergeStage> merge;

  /// Ordered alert release state. Lanes append to `pending` during an
  /// executor step — shard lanes concurrently, so under `alert_mu`; the
  /// session thread extracts and emits, between steps, the alerts the
  /// advanced watermark has passed.
  std::mutex alert_mu;
  std::vector<Alert> pending;
  std::set<std::pair<std::string, std::string>> distinct_seen;
  std::map<std::string, uint64_t> emitted_by_query;

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
    if (slot != nullptr) core->UnregisterSession(slot);
  }

  // -------------------------------------------------------------------
  // Wiring.

  ConcurrentQueryScheduler::Options SchedulerOptions(bool member_index) {
    ConcurrentQueryScheduler::Options o;
    o.enable_grouping = core->options().enable_grouping;
    o.enable_member_index = member_index;
    return o;
  }

  /// This session's alert destination: the per-session sink when one was
  /// installed, the engine-wide (serialized) funnel otherwise.
  void EmitAlert(const Alert& a) {
    if (sopts.alert_sink) {
      sopts.alert_sink(a);
    } else {
      core->Emit(a);
    }
  }

  AlertSink DirectSink(SessionQuery* sq) {
    return [this, sq](const Alert& a) {
      EmitAlert(a);
      if (sq->tap) sq->tap(a);
    };
  }

  AlertSink CollectorSink() {
    return [this](const Alert& a) {
      std::lock_guard<std::mutex> lock(alert_mu);
      pending.push_back(a);
    };
  }

  /// Shares lane 0's (re)built ConstraintIndex with another lane's
  /// corresponding group — the single rule all membership-change paths
  /// (open, dynamic add, dynamic remove, rotation reindex) apply: only
  /// when member indexing is on and the groups demonstrably correspond
  /// (equal signatures; AdoptIndex additionally rejects member-count
  /// mismatches). Null-tolerant so callers can pass through "no group
  /// survived" results directly.
  void AdoptIndexFromLane0(QueryGroup* lane0_group, QueryGroup* group) {
    if (lane0_group == nullptr || group == nullptr) return;
    if (!core->options().enable_member_index) return;
    if (group->signature() == lane0_group->signature()) {
      group->AdoptIndex(lane0_group->shared_index());
    }
  }

  /// Shard lanes 1..N-1 mirror lane 0: same queries, same order, so they
  /// adopt lane 0's ConstraintIndex instead of building their own. Lane 0
  /// and the global lane build theirs.
  bool AdoptsLane0Index(size_t lane) const {
    return lane > 0 && lane < num_lanes;
  }

  /// Wires one query's sinks/replicas for the session's lanes and records
  /// its placements: at one lane the primary itself runs on lane 0 and
  /// alerts straight to the sink; at more lanes the query is classified,
  /// runs its primary on the global lane or a replica per shard lane, and
  /// stateful queries register with the merge stage. Shared by session
  /// open and mid-stream AddQuery.
  Status WireQuery(SessionQuery* sq) {
    CompiledQuery* q = sq->primary.get();
    q->SetErrorReporter(core->errors());
    if (num_lanes == 1) {
      q->SetAlertSink(DirectSink(sq));
      sq->placements.push_back({0, q});
      return Status::Ok();
    }
    sq->mode = q->shard_mode();
    if (sq->mode == CompiledQuery::ShardMode::kGlobal) {
      q->SetAlertSink(CollectorSink());
      sq->placements.push_back({num_lanes, q});
      return Status::Ok();
    }
    if (sq->mode == CompiledQuery::ShardMode::kPartitionableWithMerge) {
      // The primary becomes the merge replica: it holds the global group
      // histories / invariants / cluster state and emits the alerts.
      q->SetAlertSink(CollectorSink());
      sq->merge_handle = merge->RegisterQuery(q);
    } else if (q->return_distinct()) {
      sq->central_distinct = true;
    }
    sq->replicas.reserve(num_lanes);
    for (size_t s = 0; s < num_lanes; ++s) {
      SAQL_ASSIGN_OR_RETURN(
          std::unique_ptr<CompiledQuery> r,
          CompiledQuery::Create(q->analyzed_ptr(), sq->name, q->options()));
      r->SetErrorReporter(core->errors());
      if (sq->mode == CompiledQuery::ShardMode::kPartitionableWithMerge) {
        ShardMergeStage* m = merge.get();
        size_t handle = sq->merge_handle;
        r->ExportPartialWindows(
            [m, s, handle](const TimeWindow& w,
                           std::vector<StateMaintainer::PartialGroup>& groups) {
              m->AddPartials(s, handle, w, groups);
            });
      } else {
        r->SetAlertSink(CollectorSink());
      }
      sq->placements.push_back({s, r.get()});
      sq->replicas.push_back(std::move(r));
    }
    return Status::Ok();
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
    const size_t shards =
        sopts.num_shards != 0 ? sopts.num_shards : opts.num_shards;
    num_lanes =
        std::clamp<size_t>(shards, 1, ShardedStreamExecutor::kMaxShards);

    // Snapshot the engine's registered queries as this session's set,
    // compiling a fresh instance of each (sessions never share mutable
    // execution state; the analyzed queries and their canonical forms are
    // immutable and shared).
    fleet = core->SnapshotRegistry();
    for (const FleetEntry& reg : fleet) {
      auto sq = std::make_unique<SessionQuery>();
      sq->name = reg.name;
      SAQL_ASSIGN_OR_RETURN(
          sq->primary,
          CompiledQuery::Create(reg.aq, reg.name, opts.query_options));
      sq->slot = queries.size();
      sq->handle.reset(new QueryHandle(session, sq->slot, sq->name));
      by_name[sq->name] = sq.get();
      queries.push_back(std::move(sq));
    }

    Status st = BuildExecution();
    if (!st.ok()) return st;
    slot = core->RegisterSession();
    return Status::Ok();
  }

  /// Shard lane `lane`'s groups re-share lane 0's (re)built
  /// ConstraintIndex (positional: shard lanes register the same queries in
  /// the same order).
  void AdoptLane0Index(size_t lane) {
    std::vector<QueryGroup*> lane0_groups = schedulers[0]->groups();
    std::vector<QueryGroup*> groups = schedulers[lane]->groups();
    for (size_t j = 0; j < groups.size() && j < lane0_groups.size(); ++j) {
      AdoptIndexFromLane0(lane0_groups[j], groups[j]);
    }
  }

  Status BuildExecution() {
    const EngineOptions& opts = core->options();
    ShardedStreamExecutor::Options exec_opts;
    exec_opts.num_shards = num_lanes;
    exec_opts.executor = StreamExecutor::Options{opts.enable_routing};
    executor = std::make_unique<ShardedStreamExecutor>(exec_opts);
    if (num_lanes > 1) merge = std::make_unique<ShardMergeStage>(num_lanes);

    for (auto& sq : queries) {
      Status st = WireQuery(sq.get());
      if (!st.ok()) return st;
    }

    // One scheduler (query grouping) per lane, over the instances placed
    // on it. The member-matching ConstraintIndex is built on lane 0 and on
    // the global lane; shard lanes 1..N-1 adopt lane 0's immutable index
    // (they register the same queries in the same order, so groups
    // correspond by position and member order, and Match is const —
    // per-lane scratch lives in each lane's own QueryGroup).
    schedulers.reserve(num_lanes + 1);
    for (size_t lane = 0; lane <= num_lanes; ++lane) {
      schedulers.push_back(std::make_unique<ConcurrentQueryScheduler>(
          SchedulerOptions(opts.enable_member_index &&
                           !AdoptsLane0Index(lane))));
    }
    for (auto& sq : queries) {
      for (const Placement& p : sq->placements) {
        schedulers[p.lane]->AddQuery(p.instance);
      }
    }
    for (size_t lane = 0; lane < schedulers.size(); ++lane) {
      schedulers[lane]->BuildGroups();
      if (AdoptsLane0Index(lane)) AdoptLane0Index(lane);
      for (QueryGroup* g : schedulers[lane]->groups()) {
        executor->Subscribe(lane, g);
      }
    }
    executor->BeginStream();
    return Status::Ok();
  }

  // -------------------------------------------------------------------
  // Live interner rotation healing.

  /// The session's quiesce-point half of a live rotation: re-captures
  /// every compiled constraint's symbol under the current generation,
  /// rebuilds the ConstraintIndex probe groups (lane 0 and the global lane
  /// rebuild, shard lanes 1..N-1 adopt lane 0's positionally), then
  /// advances this session's reclaim barrier and lets the core free
  /// generations every session has passed. Called from the session thread,
  /// between executor steps, with the generation already observed to have
  /// moved.
  void HealRotation(uint64_t gen) {
    for (auto& sq : queries) {
      if (!sq->active) continue;
      if (sq->primary != nullptr) sq->primary->ReInternSymbols();
      for (auto& r : sq->replicas) r->ReInternSymbols();
    }
    for (size_t lane = 0; lane < schedulers.size(); ++lane) {
      if (AdoptsLane0Index(lane)) {
        AdoptLane0Index(lane);
      } else {
        schedulers[lane]->ReindexAllGroups();
      }
    }
    slot->gen_seen.store(gen, std::memory_order_release);
    core->MaybeReclaim();
  }

  /// Applies the rotation policy and heals if the generation moved (by
  /// this session's own rotation or another session's). The steady-state
  /// cost is two atomic loads.
  void RotationCheckpoint() {
    core->MaybeRotate();
    const uint64_t gen = Interner::Global().generation();
    if (gen != slot->gen_seen.load(std::memory_order_relaxed)) {
      HealRotation(gen);
    }
  }

  // -------------------------------------------------------------------
  // Ordered alert release (more than one lane; at one lane nothing is
  // ever collected).

  /// Emits every collected alert whose event time is strictly below
  /// `cutoff`: the advanced watermark (every lane has applied it, so no
  /// lane can still produce an older alert, and the released prefix
  /// matches the batch run's full (ts, query, group, values) sort), or
  /// INT64_MAX after FinishStream. Runs between executor steps, when no
  /// lane appends to `pending`.
  void ReleaseReadyAlerts(Timestamp cutoff) {
    if (pending.empty() || cutoff == INT64_MIN) return;
    std::vector<Alert> ready;
    std::vector<Alert> keep;
    for (Alert& a : pending) {
      if (a.ts < cutoff) {
        ready.push_back(std::move(a));
      } else {
        keep.push_back(std::move(a));
      }
    }
    pending = std::move(keep);
    if (ready.empty()) return;
    // Deterministic emission: order by (event time, query, group,
    // rendered values), then apply cross-shard `return distinct`.
    std::vector<std::pair<std::string, size_t>> order;
    order.reserve(ready.size());
    for (size_t i = 0; i < ready.size(); ++i) {
      order.emplace_back(AlertValueKey(ready[i]), i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&ready](const auto& a, const auto& b) {
                       const Alert& x = ready[a.second];
                       const Alert& y = ready[b.second];
                       if (x.ts != y.ts) return x.ts < y.ts;
                       if (x.query_name != y.query_name) {
                         return x.query_name < y.query_name;
                       }
                       if (x.group != y.group) return x.group < y.group;
                       return a.first < b.first;
                     });
    for (const auto& [value_key, idx] : order) {
      const Alert& a = ready[idx];
      auto it = by_name.find(a.query_name);
      SessionQuery* sq = it == by_name.end() ? nullptr : it->second;
      if (sq != nullptr && sq->central_distinct &&
          !distinct_seen.emplace(a.query_name, value_key).second) {
        continue;  // duplicate row another shard already produced
      }
      ++emitted_by_query[a.query_name];
      EmitAlert(a);
      if (sq != nullptr && sq->tap) sq->tap(a);
    }
  }

  // -------------------------------------------------------------------
  // Streaming.

  Status Push(Event* events, size_t count) {
    RotationCheckpoint();
    if (count == 0) return Status::Ok();
    // Record-ahead: persist before query processing sees the batch, so a
    // crash never alerts on an event the log lost.
    if (recorder != nullptr && recording_status.ok()) {
      recording_status = recorder->Append(events, count);
    }
    executor->PushBatch(events, count);
    ReleaseReadyAlerts(advanced_watermark);
    return Status::Ok();
  }

  Status AdvanceWatermark(Timestamp ts) {
    if (!executor->AdvanceWatermark(ts)) return Status::Ok();
    advanced_watermark = ts;
    if (merge != nullptr) {
      // The merge splits by query: every shard lane evaluates its share of
      // the merged windows.
      executor->RunOnShards(
          [this, ts](size_t lane) { merge->AdvanceWatermark(lane, ts); });
    }
    ReleaseReadyAlerts(advanced_watermark);
    return Status::Ok();
  }

  Timestamp MaxEventTs() const { return executor->input_max_ts(); }

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
    sq->primary = std::move(prepared.instance);
    sq->diagnostics = *out;

    Status st = WireQuery(sq.get());
    if (!st.ok()) return st;
    // A new group means a new stream subscription: the lane's dispatch
    // index re-registers before the next batch (the global lane's first
    // group starts the lane mid-stream; it sees the stream from this point
    // on). An existing group keeps its subscription (the new member shares
    // its structural envelope) but had its ConstraintIndex rebuilt, which
    // shard lanes 1..N-1 then adopt from lane 0.
    QueryGroup* lane0_group = nullptr;
    for (const Placement& p : sq->placements) {
      bool created = false;
      QueryGroup* g =
          schedulers[p.lane]->AddQueryDynamic(p.instance, &created);
      if (created) executor->Subscribe(p.lane, g);
      if (p.lane == 0) {
        lane0_group = g;
      } else if (AdoptsLane0Index(p.lane)) {
        AdoptIndexFromLane0(lane0_group, g);
      }
    }

    // Session-local attach: concurrent sessions are isolated tenants, so
    // the engine-level registry (which future sessions snapshot) is not
    // touched — that is what SaqlEngine::AddQuery between sessions is
    // for.
    sq->slot = queries.size();
    sq->handle.reset(new QueryHandle(session, sq->slot, name));
    QueryHandle* h = sq->handle.get();
    by_name[name] = sq.get();
    queries.push_back(std::move(sq));
    fleet.push_back(std::move(prepared.entry));
    return h;
  }

  CompiledQuery::QueryStats SumStats(const SessionQuery& sq) const {
    CompiledQuery::QueryStats total =
        sq.primary != nullptr ? sq.primary->stats()
                              : CompiledQuery::QueryStats{};
    for (const auto& r : sq.replicas) {
      const CompiledQuery::QueryStats rs = r->stats();
      total.events_in += rs.events_in;
      total.events_past_global += rs.events_past_global;
      total.matches += rs.matches;
      total.windows_closed += rs.windows_closed;
      total.alerts += rs.alerts;
      total.eval_errors += rs.eval_errors;
      total.late_matches += rs.late_matches;
    }
    return total;
  }

  Status RemoveSlot(size_t slot_index) {
    SessionQuery* sq = queries[slot_index].get();
    if (!sq->active) {
      return Status::FailedPrecondition("query '" + sq->name +
                                        "' was already removed");
    }
    sq->final_stats = SumStats(*sq);
    // An emptied group must leave its lane's dispatch index before it
    // dies; a patched one had its index rebuilt over the survivors.
    QueryGroup* lane0_patched = nullptr;
    for (const Placement& p : sq->placements) {
      std::unique_ptr<QueryGroup> emptied;
      QueryGroup* patched = nullptr;
      schedulers[p.lane]->RemoveQuery(p.instance, &emptied, &patched);
      if (emptied) {
        executor->Unsubscribe(p.lane, emptied.get());
      } else if (p.lane == 0) {
        lane0_patched = patched;
      } else if (AdoptsLane0Index(p.lane)) {
        AdoptIndexFromLane0(lane0_patched, patched);
      }
    }
    if (sq->merge_handle != kNoMergeHandle) {
      // Pending unmerged windows are dropped, not flushed: removal tears
      // partial state down.
      merge->RemoveQuery(sq->merge_handle);
    }
    sq->placements.clear();
    sq->replicas.clear();
    sq->primary.reset();
    sq->active = false;
    fleet.erase(std::find_if(
        fleet.begin(), fleet.end(),
        [sq](const FleetEntry& e) { return e.name == sq->name; }));
    return Status::Ok();
  }

  // -------------------------------------------------------------------
  // Statistics.

  CompiledQuery::QueryStats SlotStats(size_t slot_index) {
    SessionQuery* sq = queries[slot_index].get();
    CompiledQuery::QueryStats qs;
    if (!sq->active) {
      qs = sq->final_stats;
    } else {
      qs = SumStats(*sq);
    }
    if (num_lanes > 1 &&
        sq->mode == CompiledQuery::ShardMode::kPartitionable) {
      // Replicas count pre-deduplication emissions; report what actually
      // reached the sink (more may still be buffered for ordered
      // release).
      auto it = emitted_by_query.find(sq->name);
      qs.alerts = it == emitted_by_query.end() ? 0 : it->second;
    }
    return qs;
  }

  std::vector<std::pair<std::string, CompiledQuery::QueryStats>>
  QueryStats() {
    std::vector<std::pair<std::string, CompiledQuery::QueryStats>> out;
    out.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      out.emplace_back(queries[i]->name, SlotStats(i));
    }
    return out;
  }

  /// Groups over every lane that builds its own index; shard lanes
  /// 1..N-1 mirror lane 0 and are not counted again.
  size_t NumGroups() const {
    size_t n = 0;
    for (size_t lane = 0; lane < schedulers.size(); ++lane) {
      if (!AdoptsLane0Index(lane)) n += schedulers[lane]->num_groups();
    }
    return n;
  }

  size_t NumIndexedGroups() const {
    size_t n = 0;
    for (size_t lane = 0; lane < schedulers.size(); ++lane) {
      if (!AdoptsLane0Index(lane)) {
        n += schedulers[lane]->num_indexed_groups();
      }
    }
    return n;
  }

  double ForwardRatio() const {
    uint64_t in = 0, forwarded = 0;
    for (auto& sched : schedulers) {
      for (QueryGroup* g : sched->groups()) {
        in += g->stats().events_in;
        forwarded += g->stats().events_forwarded;
      }
    }
    return in == 0 ? 0.0
                   : static_cast<double>(forwarded) /
                         static_cast<double>(in);
  }

  ExecutorStats ExecStats() const { return executor->merged_stats(); }

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
    if (merge != nullptr) merge->Finish();
    ReleaseReadyAlerts(INT64_MAX);
    // Freeze every live query's stats (the fixups in SlotStats still
    // apply — emitted_by_query is final now).
    for (auto& sq : queries) {
      if (sq->active) sq->final_stats = SumStats(*sq);
    }
    // Publish the run to the engine-level accessors (last close wins)
    // before deactivating.
    EngineCore::RunStats run;
    run.exec = ExecStats();
    run.num_groups = NumGroups();
    run.indexed_groups = NumIndexedGroups();
    run.forward_ratio = ForwardRatio();
    run.query_stats = QueryStats();
    core->PublishRun(std::move(run));
    for (auto& sq : queries) sq->active = false;
    core->UnregisterSession(slot);
    slot = nullptr;
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

uint64_t SaqlEngine::Session::id() const {
  return impl_->slot != nullptr ? impl_->slot->id : 0;
}

Timestamp SaqlEngine::Session::max_event_ts() const {
  return impl_->MaxEventTs();
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
  return impl_->ExecStats();
}

size_t SaqlEngine::Session::num_active_queries() const {
  size_t n = 0;
  for (const auto& sq : impl_->queries) n += sq->active ? 1 : 0;
  return n;
}

size_t SaqlEngine::Session::num_groups() const { return impl_->NumGroups(); }

size_t SaqlEngine::Session::num_indexed_groups() const {
  return impl_->NumIndexedGroups();
}

double SaqlEngine::Session::forward_ratio() const {
  return impl_->ForwardRatio();
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
