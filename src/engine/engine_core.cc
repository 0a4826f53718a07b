#include "engine/engine_core.h"

#include <iterator>
#include <set>

#include "analysis/query_analysis.h"

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

uint64_t EngineCore::RegisterSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const uint64_t id = next_session_id_++;
  sessions_.insert(id);
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void EngineCore::UnregisterSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(id);
}

size_t EngineCore::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

uint64_t EngineCore::sessions_opened() const {
  return sessions_opened_.load(std::memory_order_relaxed);
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
