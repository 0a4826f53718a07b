#include "engine/engine_core.h"

#include <algorithm>
#include <set>

#include "analysis/query_analysis.h"
#include "core/interner.h"

namespace saql {

namespace {

/// Process-wide set of record paths with a live writer session. Static
/// function scope so two SaqlEngine instances in one process contend
/// correctly.
std::mutex& RecordPathMutex() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& LiveRecordPaths() {
  static std::set<std::string> paths;
  return paths;
}

}  // namespace

EngineCore::EngineCore(EngineOptions options)
    : options_(std::move(options)) {
  sink_ = [this](const Alert& a) { alerts_.push_back(a); };
}

Result<EngineCore::PreparedQuery> EngineCore::PrepareQuery(
    AnalyzedQueryPtr aq, const std::string& name,
    const Fleet& fleet, std::vector<Diagnostic>* diagnostics) const {
  SAQL_ASSIGN_OR_RETURN(
      std::unique_ptr<CompiledQuery> instance,
      CompiledQuery::Create(aq, name, options_.query_options));
  // Static analysis gates admission before any wiring: a provably broken
  // query (UNSAT constraints, dead pattern) never reaches a session.
  std::vector<Diagnostic> findings = QueryAnalysis::Lint(*instance);
  if (HasErrors(findings)) {
    std::string rendered = RenderDiagnostics(findings, "  ");
    if (diagnostics != nullptr) *diagnostics = std::move(findings);
    return Status::InvalidArgument("query '" + name +
                                   "' rejected by static analysis:\n" +
                                   rendered);
  }
  FleetEntry entry(name, std::move(aq));
  FleetAnalysis::Options fleet_opts;
  fleet_opts.subsumption = options_.query_options.alert_cooldown <= 0;
  std::vector<Diagnostic> fleet_findings = fleet.Check(entry, fleet_opts);
  findings.insert(findings.end(),
                  std::make_move_iterator(fleet_findings.begin()),
                  std::make_move_iterator(fleet_findings.end()));
  if (diagnostics != nullptr) *diagnostics = std::move(findings);
  return PreparedQuery{std::move(entry), std::move(instance)};
}

Status EngineCore::RegisterQuery(AnalyzedQueryPtr aq, const std::string& name,
                                 std::vector<Diagnostic>* diagnostics) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  SAQL_ASSIGN_OR_RETURN(
      PreparedQuery prepared,
      PrepareQuery(std::move(aq), name, registered_, diagnostics));
  if (!registered_names_.insert(name).second) {
    return Status::AlreadyExists("query '" + name + "' is already registered");
  }
  registered_.Add(std::move(prepared.entry));
  return Status::Ok();
}

Fleet EngineCore::SnapshotRegistry() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return registered_;
}

size_t EngineCore::num_queries() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return registered_.size();
}

void EngineCore::SetAlertSink(AlertSink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_ = std::move(sink);
}

void EngineCore::Emit(const Alert& a) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_(a);
}

EngineCore::SessionSlot* EngineCore::RegisterSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto slot = std::make_unique<SessionSlot>();
  slot->id = next_session_id_++;
  slot->gen_seen.store(Interner::Global().generation(),
                       std::memory_order_relaxed);
  SessionSlot* out = slot.get();
  sessions_.emplace(out->id, std::move(slot));
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void EngineCore::UnregisterSession(SessionSlot* slot) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(slot->id);
}

size_t EngineCore::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

uint64_t EngineCore::sessions_opened() const {
  return sessions_opened_.load(std::memory_order_relaxed);
}

bool EngineCore::MaybeRotate() {
  if (options_.interner_rotate_bytes == 0) return false;
  Interner& interner = Interner::Global();
  if (interner.payload_bytes() < options_.interner_rotate_bytes) {
    return false;
  }
  std::lock_guard<std::mutex> lock(rotate_mu_);
  // Re-check under the lock: another session may have rotated between
  // the lock-free check and here — don't rotate a just-emptied table.
  if (interner.payload_bytes() < options_.interner_rotate_bytes) {
    return false;
  }
  interner.Rotate();
  return true;
}

size_t EngineCore::MaybeReclaim() {
  uint64_t min_gen = Interner::Global().generation();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, slot] : sessions_) {
      min_gen = std::min(
          min_gen, slot->gen_seen.load(std::memory_order_acquire));
    }
  }
  return Interner::Global().ReclaimBefore(min_gen);
}

Status EngineCore::ReserveRecordPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(RecordPathMutex());
  if (!LiveRecordPaths().insert(path).second) {
    return Status::AlreadyExists(
        "another live session is recording to '" + path +
        "'; concurrent sessions need distinct record paths");
  }
  return Status::Ok();
}

void EngineCore::ReleaseRecordPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(RecordPathMutex());
  LiveRecordPaths().erase(path);
}

void EngineCore::PublishRun(RunStats stats) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  last_run_ = std::move(stats);
}

}  // namespace saql
