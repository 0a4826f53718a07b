#include "cli/shell.h"

#include <fstream>
#include <sstream>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "cli/table.h"
#include "collect/enterprise_sim.h"
#include "core/string_util.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"
#include "storage/recovery.h"
#include "storage/replayer.h"

namespace saql {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Parses and compiles `text` as query `name` (default options): the
/// instance the `lint` and `explain` commands analyze.
Result<std::unique_ptr<CompiledQuery>> CompileForAnalysis(
    const std::string& text, const std::string& name) {
  SAQL_ASSIGN_OR_RETURN(AnalyzedQueryPtr aq, CompileSaql(text));
  return CompiledQuery::Create(std::move(aq), name, {});
}

}  // namespace

QueryShell::QueryShell(std::istream& in, std::ostream& out)
    : in_(in), out_(out) {}

QueryShell::~QueryShell() {
  // Sessions before engine: their teardown touches the engine.
  live_sessions_.clear();
  live_engine_.reset();
}

void QueryShell::Run() {
  out_ << "SAQL shell — type 'help' for commands.\n";
  std::string line;
  while (true) {
    out_ << "saql> " << std::flush;
    if (!std::getline(in_, line)) break;
    if (!Execute(line)) break;
  }
  out_ << "bye.\n";
}

bool QueryShell::Execute(const std::string& line) {
  std::string trimmed = Trim(line);
  if (trimmed.empty()) return true;
  std::vector<std::string> tokens = Tokenize(trimmed);
  std::string cmd = ToLower(tokens[0]);
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    CmdHelp();
  } else if (cmd == "load") {
    CmdLoad(args);
  } else if (cmd == "query") {
    CmdQueryInline(trimmed.substr(5));
  } else if (cmd == "list") {
    CmdList();
  } else if (cmd == "lint") {
    CmdLint(args);
  } else if (cmd == "fleet") {
    CmdFleet();
  } else if (cmd == "explain") {
    CmdExplain(args);
  } else if (cmd == "simulate") {
    CmdSimulate(args);
  } else if (cmd == "replay") {
    CmdReplay(args);
  } else if (cmd == "record") {
    CmdRecord(args);
  } else if (cmd == "recover") {
    CmdRecover(args);
  } else if (cmd == "open") {
    CmdOpen(args);
  } else if (cmd == "push") {
    CmdPush(args);
  } else if (cmd == "add") {
    CmdAdd(trimmed.substr(3));
  } else if (cmd == "remove") {
    CmdRemove(args);
  } else if (cmd == "session") {
    CmdSessionStatus(args);
  } else if (cmd == "sessions") {
    CmdSessions();
  } else if (cmd == "close") {
    CmdClose(args);
  } else if (cmd == "alerts") {
    CmdAlerts(args);
  } else if (cmd == "index") {
    CmdIndex(args);
  } else if (cmd == "stats") {
    CmdStats();
  } else if (cmd == "errors") {
    CmdErrors();
  } else {
    out_ << "unknown command '" << cmd << "' — try 'help'\n";
  }
  return true;
}

void QueryShell::CmdHelp() {
  out_ << "commands:\n"
       << "  load <file> [name]      load a .saql query file\n"
       << "  query <name> <text>     register an inline query\n"
       << "  list                    list registered queries\n"
       << "  lint [file...]          static-analysis diagnostics for\n"
          "                          .saql files (satisfiability, dead\n"
          "                          patterns, type/dataflow checks); with\n"
          "                          no files, lints every registered\n"
          "                          query\n"
       << "  fleet                   cross-query analysis of the\n"
          "                          registered set: duplicates (SA050),\n"
          "                          subsumption (SA051), and routing-\n"
          "                          envelope overlap per (type, op) cell\n"
       << "  explain <name>          lint findings for a registered query\n"
       << "  simulate [minutes]      run enterprise sim + APT attack\n"
       << "  replay <log> [host...]  replay a stored columnar v2 event log\n"
       << "  record <log> [minutes]  simulate and store events to a log\n"
          "                          (columnar v2 via the durable WAL\n"
          "                          pipeline)\n"
          "                          --sync=always  ack only fsynced\n"
          "                                         events (no acked\n"
          "                                         event is ever lost)\n"
          "                          --sync=group[:<delay_us>[:<bytes>]]\n"
          "                                         batched fsync barrier\n"
          "                                         (default; crash loss\n"
          "                                         bounded to the open\n"
          "                                         commit window)\n"
          "                          --sync=none    durability only at\n"
          "                                         segment/close\n"
          "                                         barriers (fastest)\n"
       << "  recover <log>           recover a crashed durable log:\n"
          "                          complete columnar segments + WAL\n"
          "                          tail replay (torn records dropped by\n"
          "                          CRC), then compact back to a pure\n"
          "                          columnar log\n"
       << "  open                    open a live push-driven session;\n"
          "                          repeatable — sessions run as\n"
          "                          isolated concurrent tenants, and the\n"
          "                          newest one becomes current\n"
          "                          (--record=<log> [--sync=P] [--force]\n"
          "                          also records pushed events durably;\n"
          "                          on disk errors the session keeps\n"
          "                          serving queries and the recording\n"
          "                          is marked failed; --force discards\n"
          "                          stale WAL files left by a crashed\n"
          "                          earlier incarnation of the log)\n"
       << "  push [#id] [minutes]    push simulated traffic into a "
          "session\n"
       << "  add [#id] <name> <text> attach a query mid-stream to one\n"
          "                          session (others are unaffected)\n"
       << "  remove [#id] <name>     retract a query\n"
       << "  session [#id]           one session's status (an explicit\n"
          "                          #id also makes it current)\n"
       << "  sessions                list all open sessions\n"
       << "  close [#id]             close a session\n"
       << "  alerts [n]              show last n alerts\n"
       << "  index [on|off]          show or toggle member-match indexing\n"
       << "  stats                   statistics (live session or last "
          "run)\n"
       << "  errors                  error reports\n"
       << "  quit                    exit\n";
}

void QueryShell::CmdLoad(const std::vector<std::string>& args) {
  if (args.empty()) {
    out_ << "usage: load <file> [name]\n";
    return;
  }
  std::ifstream f(args[0]);
  if (!f) {
    out_ << "cannot open '" << args[0] << "'\n";
    return;
  }
  std::ostringstream text;
  text << f.rdbuf();
  std::string name = args.size() > 1 ? args[1] : args[0];
  Result<AnalyzedQueryPtr> compiled = CompileSaql(text.str());
  if (!compiled.ok()) {
    out_ << "query rejected: " << compiled.status() << "\n";
    return;
  }
  queries_[name] = text.str();
  out_ << "loaded query '" << name << "'\n";
  if (session_open()) {
    out_ << "note: the live session does not pick up 'load' — use 'add' "
            "to attach mid-stream\n";
  }
}

void QueryShell::CmdQueryInline(const std::string& rest) {
  std::istringstream is(Trim(rest));
  std::string name;
  is >> name;
  std::string text;
  std::getline(is, text);
  text = Trim(text);
  if (name.empty() || text.empty()) {
    out_ << "usage: query <name> <text>\n";
    return;
  }
  Result<AnalyzedQueryPtr> compiled = CompileSaql(text);
  if (!compiled.ok()) {
    out_ << "query rejected: " << compiled.status() << "\n";
    return;
  }
  queries_[name] = text;
  out_ << "registered query '" << name << "'\n";
}

void QueryShell::CmdList() {
  if (queries_.empty()) {
    out_ << "(no queries registered)\n";
    return;
  }
  for (const auto& [name, text] : queries_) {
    out_ << "  " << name << " (" << text.size() << " chars)\n";
  }
}

void QueryShell::PrintDiagnostics(
    const std::vector<Diagnostic>& diagnostics) {
  out_ << RenderDiagnostics(diagnostics, "  ");
  size_t errors = CountSeverity(diagnostics, Severity::kError);
  size_t warnings = CountSeverity(diagnostics, Severity::kWarning);
  out_ << "  " << errors << " error(s), " << warnings << " warning(s), "
       << diagnostics.size() - errors - warnings << " note(s)\n";
}

void QueryShell::CmdLint(const std::vector<std::string>& args) {
  auto lint = [this](const std::string& label, const std::string& text) {
    Result<std::unique_ptr<CompiledQuery>> query =
        CompileForAnalysis(text, label);
    if (!query.ok()) {
      out_ << label << ": compile error: " << query.status() << "\n";
      return;
    }
    out_ << label << ":\n";
    PrintDiagnostics(QueryAnalysis::Lint(**query));
  };
  // With no file arguments, lint every registered query instead.
  if (args.empty()) {
    if (queries_.empty()) {
      out_ << "usage: lint <file.saql> [more files...]\n"
              "(no queries registered — 'load' some, or pass files)\n";
      return;
    }
    for (const auto& [name, text] : queries_) lint(name, text);
    return;
  }
  for (const std::string& path : args) {
    std::ifstream f(path);
    if (!f) {
      out_ << path << ": cannot open\n";
      continue;
    }
    std::ostringstream text;
    text << f.rdbuf();
    lint(path, text.str());
  }
}

void QueryShell::CmdFleet() {
  if (queries_.size() < 1) {
    out_ << "(no queries registered — 'load' or 'query' some first)\n";
    return;
  }
  std::vector<FleetAnalysis::Member> members;
  for (const auto& [name, text] : queries_) {
    Result<AnalyzedQueryPtr> compiled = CompileSaql(text);
    if (!compiled.ok()) {
      out_ << name << ": compile error: " << compiled.status() << "\n";
      continue;
    }
    members.push_back({name, *compiled});
  }
  FleetReport report = FleetAnalysis::Analyze(members);
  out_ << report.ToString();
  for (size_t i = 0; i < report.findings.size(); ++i) {
    if (report.findings[i].empty()) continue;
    out_ << report.names[i] << ":\n"
         << RenderDiagnostics(report.findings[i], "  ");
  }
}

void QueryShell::CmdExplain(const std::vector<std::string>& args) {
  if (args.empty()) {
    out_ << "usage: explain <query-name>\n";
    return;
  }
  auto it = queries_.find(args[0]);
  if (it == queries_.end()) {
    out_ << "no query named '" << args[0] << "' — 'list' shows names\n";
    return;
  }
  Result<std::unique_ptr<CompiledQuery>> query =
      CompileForAnalysis(it->second, args[0]);
  if (!query.ok()) {
    out_ << "compile error: " << query.status() << "\n";
    return;
  }
  PrintDiagnostics(QueryAnalysis::Lint(**query));
}

void QueryShell::ConsumeSyncFlag(std::vector<std::string>* args,
                                 SyncPolicy* policy) {
  for (auto it = args->begin(); it != args->end();) {
    if (it->rfind("--sync=", 0) == 0) {
      Result<SyncPolicy> parsed = ParseSyncPolicy(it->substr(7));
      if (!parsed.ok()) {
        out_ << "ignoring '" << *it << "': " << parsed.status() << "\n";
      } else {
        *policy = *parsed;
      }
      it = args->erase(it);
    } else {
      ++it;
    }
  }
}

bool QueryShell::RejectUnknownFlag(const std::vector<std::string>& args,
                                   const char* usage) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      out_ << "unknown flag '" << arg << "' — usage: " << usage << "\n";
      return true;
    }
  }
  return false;
}

void QueryShell::BadArgument(const std::string& arg, const char* usage) {
  out_ << "bad argument '" << arg << "' — usage: " << usage << "\n";
}

bool QueryShell::ParseMinutes(const std::string& token, const char* usage,
                              Duration* duration) {
  // Digits only, and few enough (< 10^8 minutes) that the duration fits
  // in int64 nanoseconds.
  const bool digits =
      !token.empty() && token.size() <= 8 &&
      token.find_first_not_of("0123456789") == std::string::npos;
  const Duration minutes = digits ? std::stoll(token) : 0;
  if (minutes <= 0) {
    BadArgument(token, usage);
    return false;
  }
  *duration = minutes * kMinute;
  return true;
}

std::string QueryShell::FormatStats(
    const ExecutorStats& exec, size_t num_queries, size_t num_groups,
    size_t indexed_groups, bool member_indexed, size_t num_alerts,
    const std::vector<std::pair<std::string, CompiledQuery::QueryStats>>&
        query_stats) const {
  std::ostringstream stats;
  stats << "events=" << exec.events << " deliveries=" << exec.deliveries
        << " queries=" << num_queries << " groups=" << num_groups
        << " indexed_groups=" << indexed_groups << " member_matching="
        << (member_indexed ? "indexed" : "brute")
        << " alerts=" << num_alerts << "\n";
  for (const auto& [name, qs] : query_stats) {
    stats << "  " << name << ": matched=" << qs.matches
          << " windows=" << qs.windows_closed << " alerts=" << qs.alerts
          << "\n";
  }
  return stats.str();
}

void QueryShell::RunEngine(EventSource* source) {
  if (queries_.empty()) {
    out_ << "no queries registered — use 'load' or 'query' first\n";
    return;
  }
  SaqlEngine::Options opts;
  opts.enable_member_index = member_index_;
  SaqlEngine engine(opts);
  for (const auto& [name, text] : queries_) {
    Status st = engine.AddQuery(text, name);
    if (!st.ok()) {
      out_ << "skipping '" << name << "': " << st << "\n";
    }
  }
  alerts_.clear();
  engine.SetAlertSink([this](const Alert& a) {
    alerts_.push_back(a);
    out_ << a.ToString() << "\n";
  });
  Status st = engine.Run(source);
  if (!st.ok()) {
    out_ << "run failed: " << st << "\n";
    return;
  }
  last_stats_ = FormatStats(engine.executor_stats(), engine.num_queries(),
                            engine.num_groups(), engine.num_indexed_groups(),
                            member_index_, alerts_.size(),
                            engine.query_stats());
  last_errors_ = engine.errors().ToString();
  out_ << "run complete: " << alerts_.size() << " alert(s)\n";
}

void QueryShell::CmdSimulate(const std::vector<std::string>& args) {
  static constexpr const char* kUsage = "simulate [minutes]";
  if (RejectUnknownFlag(args, kUsage)) return;
  EnterpriseSimulator::Options opts;
  if (!args.empty() && !ParseMinutes(args[0], kUsage, &opts.duration)) {
    return;
  }
  EnterpriseSimulator sim(opts);
  auto source = sim.MakeSource();
  out_ << "simulating " << FormatDuration(opts.duration) << " across "
       << sim.hosts().size() << " hosts (APT attack injected)...\n";
  RunEngine(source.get());
}

void QueryShell::CmdReplay(const std::vector<std::string>& args) {
  static constexpr const char* kUsage = "replay <log> [host...]";
  if (RejectUnknownFlag(args, kUsage)) return;
  if (args.empty()) {
    out_ << "usage: " << kUsage << "\n";
    return;
  }
  StreamReplayer::Filter filter;
  filter.hosts.insert(args.begin() + 1, args.end());
  StreamReplayer replayer(args[0], filter);
  if (!replayer.status().ok()) {
    out_ << "replay failed: " << replayer.status() << "\n";
    return;
  }
  out_ << "replaying " << args[0] << " (format v2, columnar)\n";
  RunEngine(&replayer);
}

void QueryShell::CmdRecord(const std::vector<std::string>& args) {
  static constexpr const char* kUsage =
      "record <log> [minutes] [--sync=always|group|none]";
  std::vector<std::string> rest = args;
  SyncPolicy sync;
  ConsumeSyncFlag(&rest, &sync);
  if (RejectUnknownFlag(rest, kUsage)) return;
  if (rest.empty()) {
    out_ << "usage: " << kUsage << "\n";
    return;
  }
  EnterpriseSimulator::Options opts;
  if (rest.size() > 1 && !ParseMinutes(rest[1], kUsage, &opts.duration)) {
    return;
  }
  EnterpriseSimulator sim(opts);
  EventBatch events = sim.Generate();
  DurableLogWriter::Options dopts;
  dopts.sync = sync;
  DurableLogWriter writer(rest[0], dopts);
  Status st = writer.status();
  if (st.ok()) st = writer.AppendBatch(events);
  Status close_st = writer.Close();
  if (st.ok()) st = close_st;
  if (!st.ok()) {
    // Sticky failure: whatever was acked before the error stays
    // recoverable ('recover <log>' replays segments + WAL tail).
    out_ << "record failed: " << st << "\n"
         << "  " << writer.durable_seq() << " of "
         << writer.appended_events()
         << " acked events are durable; run 'recover " << rest[0]
         << "' to salvage\n";
    exit_code_ = 1;
    return;
  }
  out_ << "recorded " << events.size() << " events to " << rest[0]
       << " (columnar v2, sync=" << sync.name() << ")\n";
}

void QueryShell::CmdRecover(const std::vector<std::string>& args) {
  if (args.empty()) {
    out_ << "usage: recover <log>\n";
    return;
  }
  Result<RecoveredLog> rec = CompactRecoveredLog(args[0]);
  if (!rec.ok()) {
    out_ << "recover failed: " << rec.status() << "\n";
    exit_code_ = 1;
    return;
  }
  out_ << "recovered " << rec->events.size() << " events from " << args[0]
       << " (" << rec->segment_events << " from columnar segments, "
       << rec->wal_events << " replayed from " << rec->wal_files.size()
       << " WAL file" << (rec->wal_files.size() == 1 ? "" : "s")
       << "); compacted to a pure columnar v2 log\n";
}

// ---------------------------------------------------------------------
// Live-session commands.

QueryShell::LiveSession* QueryShell::ConsumeSessionRef(
    std::vector<std::string>* args) {
  uint64_t id = current_session_;
  for (auto it = args->begin(); it != args->end();) {
    if (!it->empty() && (*it)[0] == '#') {
      char* end = nullptr;
      unsigned long long n = std::strtoull(it->c_str() + 1, &end, 10);
      if (n == 0 || end == nullptr || *end != '\0') {
        out_ << "bad session reference '" << *it << "' (expected #<id>)\n";
        return nullptr;
      }
      id = n;
      it = args->erase(it);
    } else {
      ++it;
    }
  }
  if (live_sessions_.empty()) {
    out_ << "no live session — 'open' one first\n";
    return nullptr;
  }
  auto it = live_sessions_.find(id);
  if (it == live_sessions_.end()) {
    out_ << "no open session #" << id << " — 'sessions' lists them\n";
    return nullptr;
  }
  current_session_ = id;  // addressing a session selects it
  return &it->second;
}

void QueryShell::CmdOpen(const std::vector<std::string>& args) {
  std::vector<std::string> rest = args;
  std::string record_path;
  SyncPolicy record_sync;
  bool record_force = false;
  ConsumeSyncFlag(&rest, &record_sync);
  for (auto it = rest.begin(); it != rest.end();) {
    if (it->rfind("--record=", 0) == 0) {
      record_path = it->substr(9);
      it = rest.erase(it);
    } else if (*it == "--force") {
      record_force = true;
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  static constexpr const char* kUsage =
      "open [--record=<log> [--sync=P] [--force]]";
  if (RejectUnknownFlag(rest, kUsage)) return;
  if (!rest.empty()) {
    BadArgument(rest[0], kUsage);
    return;
  }
  // One engine hosts every concurrently open session; it is built at the
  // first open (snapshotting the registered queries) and torn down when
  // the last session closes.
  if (live_engine_ == nullptr) {
    SaqlEngine::Options opts;
    opts.enable_member_index = member_index_;
    live_engine_ = std::make_unique<SaqlEngine>(opts);
    for (const auto& [name, text] : queries_) {
      Status st = live_engine_->AddQuery(text, name);
      if (!st.ok()) out_ << "skipping '" << name << "': " << st << "\n";
    }
    alerts_.clear();
    live_engine_->SetAlertSink([this](const Alert& a) {
      alerts_.push_back(a);
      out_ << a.ToString() << "\n";
    });
    live_member_index_ = member_index_;
  } else if (live_engine_->num_queries() != queries_.size()) {
    out_ << "note: sessions snapshot the query set from the first 'open' "
            "— use 'add' to attach newer queries mid-stream\n";
  }
  SessionOptions sopts;
  sopts.record_path = record_path;
  sopts.record_sync = record_sync;
  sopts.record_force = record_force;
  auto session = live_engine_->OpenSession(std::move(sopts));
  if (!session.ok()) {
    out_ << "open failed: " << session.status() << "\n";
    if (live_sessions_.empty()) live_engine_.reset();
    return;
  }
  const uint64_t id = (*session)->id();
  LiveSession& ls = live_sessions_[id];
  ls.session = std::move(session).value();
  ls.clock = EnterpriseSimulator::Options{}.start;
  ls.record_path = record_path;
  current_session_ = id;
  out_ << "session open with " << ls.session->num_active_queries()
       << " quer"
       << (ls.session->num_active_queries() == 1 ? "y" : "ies") << " (#"
       << id << (live_sessions_.size() > 1 ? ", now current" : "")
       << ") — 'push' streams data, 'add'/'remove' change the query set\n";
  if (!record_path.empty()) {
    Status rst = ls.session->recording_status();
    if (rst.ok()) {
      out_ << "recording pushed events to " << record_path
           << " (sync=" << record_sync.name() << ")\n";
    } else {
      out_ << "recording failed to start: " << rst
           << " — session serves queries without recording\n";
      ls.record_failed = true;
      exit_code_ = 1;
    }
  }
}

void QueryShell::CmdPush(const std::vector<std::string>& args) {
  static constexpr const char* kUsage = "push [#id] [minutes]";
  if (RejectUnknownFlag(args, kUsage)) return;
  std::vector<std::string> rest = args;
  LiveSession* ls = ConsumeSessionRef(&rest);
  if (ls == nullptr) return;
  EnterpriseSimulator::Options opts;
  opts.start = ls->clock;
  opts.duration = 5 * kMinute;
  if (!rest.empty() && !ParseMinutes(rest[0], kUsage, &opts.duration)) {
    return;
  }
  // Vary the seed per push so repeated pushes produce fresh traffic.
  opts.seed = 42 + ls->pushes;
  EnterpriseSimulator sim(opts);
  EventBatch events = sim.Generate();
  size_t num_alerts_before = alerts_.size();
  Status st = ls->session->Push(events);
  if (st.ok()) {
    st = ls->session->AdvanceWatermark(ls->session->max_event_ts());
  }
  if (st.ok()) st = ls->session->Flush();
  if (!st.ok()) {
    out_ << "push failed: " << st << "\n";
    return;
  }
  ls->clock += opts.duration;
  ++ls->pushes;
  ls->events += events.size();
  out_ << "pushed " << events.size() << " events ("
       << FormatDuration(opts.duration) << " of traffic; session #"
       << current_session_ << " total " << ls->events << "), "
       << alerts_.size() - num_alerts_before << " new alert(s)\n";
  if (!ls->record_path.empty() && !ls->record_failed &&
      !ls->session->recording_status().ok()) {
    // Graceful degradation: report once, keep the session serving.
    out_ << "recording failed: " << ls->session->recording_status()
         << " — the session keeps serving queries; "
         << ls->session->durable_events()
         << " events are durable, run 'recover " << ls->record_path
         << "' after closing\n";
    ls->record_failed = true;
    exit_code_ = 1;
  }
}

void QueryShell::CmdAdd(const std::string& rest) {
  std::istringstream is(Trim(rest));
  std::string first;
  is >> first;
  std::vector<std::string> ref;
  std::string name;
  if (!first.empty() && first[0] == '#') {
    ref.push_back(first);
    is >> name;
  } else {
    name = first;
  }
  std::string text;
  std::getline(is, text);
  text = Trim(text);
  if (name.empty() || text.empty()) {
    out_ << "usage: add [#id] <name> <text>\n";
    return;
  }
  if (!session_open()) {
    if (!ref.empty()) {
      out_ << "no live session — 'open' one first\n";
      return;
    }
    // No live stream to attach to: behave like `query`.
    CmdQueryInline(rest);
    return;
  }
  LiveSession* ls = ConsumeSessionRef(&ref);
  if (ls == nullptr) return;
  std::vector<Diagnostic> diags;
  auto handle = ls->session->AddQuery(text, name, &diags);
  if (!handle.ok()) {
    // Rejection leaves the session (and the shell's registry) exactly as
    // it was; show the analyzer's findings so the error is actionable.
    out_ << "add failed: query '" << name << "' rejected\n";
    if (diags.empty()) {
      out_ << "  " << handle.status() << "\n";
    } else {
      PrintDiagnostics(diags);
    }
    return;
  }
  // Surface the findings on success too: they are all actionable.
  for (const Diagnostic& d : diags) out_ << "  " << d.ToString() << "\n";
  queries_[name] = text;
  out_ << "attached query '" << name
       << "' mid-stream (sees events from this point on";
  if (live_sessions_.size() > 1) {
    out_ << "; session #" << current_session_ << " only";
  }
  out_ << ")\n";
}

void QueryShell::CmdRemove(const std::vector<std::string>& args) {
  std::vector<std::string> rest = args;
  std::vector<std::string> ref;
  for (auto it = rest.begin(); it != rest.end();) {
    if (!it->empty() && (*it)[0] == '#') {
      ref.push_back(*it);
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  if (rest.empty()) {
    out_ << "usage: remove [#id] <name>\n";
    return;
  }
  const std::string& name = rest[0];
  if (session_open()) {
    LiveSession* ls = ConsumeSessionRef(&ref);
    if (ls == nullptr) return;
    SaqlEngine::QueryHandle* h = ls->session->handle(name);
    Status st = ls->session->RemoveQuery(name);
    if (!st.ok()) {
      out_ << "remove failed: " << st << "\n";
      return;
    }
    queries_.erase(name);
    out_ << "removed query '" << name << "' from the live session";
    if (live_sessions_.size() > 1) out_ << " #" << current_session_;
    if (h != nullptr) {
      CompiledQuery::QueryStats qs = h->stats();
      out_ << " (final: matched=" << qs.matches
           << " windows=" << qs.windows_closed << " alerts=" << qs.alerts
           << ")";
    }
    out_ << "\n";
    return;
  }
  if (!ref.empty()) {
    out_ << "no live session — 'open' one first\n";
    return;
  }
  if (queries_.erase(name) > 0) {
    out_ << "unregistered query '" << name << "'\n";
  } else {
    out_ << "no query named '" << name << "'\n";
  }
}

void QueryShell::PrintSessionStatus(uint64_t id, LiveSession& ls) {
  out_ << "session #" << id << (id == current_session_ ? " (current)" : "")
       << ": open, " << ls.session->num_active_queries() << " active quer"
       << (ls.session->num_active_queries() == 1 ? "y" : "ies") << ", "
       << ls.events << " events pushed";
  if (ls.session->watermark() != INT64_MIN) {
    out_ << ", watermark " << FormatTimestamp(ls.session->watermark());
  }
  out_ << "\n";
  if (!ls.record_path.empty()) {
    Status rst = ls.session->recording_status();
    if (rst.ok()) {
      out_ << "  recording: " << ls.record_path << ", "
           << ls.session->recorded_events() << " events acked, "
           << ls.session->durable_events() << " durable\n";
    } else {
      out_ << "  recording: FAILED (" << rst << ")\n";
    }
  }
}

void QueryShell::CmdSessionStatus(const std::vector<std::string>& args) {
  std::vector<std::string> rest = args;
  LiveSession* ls = ConsumeSessionRef(&rest);
  if (ls == nullptr) return;
  PrintSessionStatus(current_session_, *ls);
  out_ << "  " << alerts_.size() << " alert(s) across all sessions\n";
}

void QueryShell::CmdSessions() {
  if (live_sessions_.empty()) {
    out_ << "(no live sessions — 'open' starts one)\n";
    return;
  }
  out_ << live_sessions_.size() << " live session"
       << (live_sessions_.size() == 1 ? "" : "s") << ":\n";
  for (auto& [id, ls] : live_sessions_) {
    out_ << "  ";
    PrintSessionStatus(id, ls);
  }
}

void QueryShell::CmdClose(const std::vector<std::string>& args) {
  std::vector<std::string> rest = args;
  LiveSession* ls = ConsumeSessionRef(&rest);
  if (ls == nullptr) return;
  const uint64_t id = current_session_;
  uint64_t recorded = ls->session->recorded_events();
  Status st = ls->session->Close();
  if (!st.ok()) out_ << "close reported: " << st << "\n";
  Status record_st = ls->session->recording_status();
  std::string record_path = ls->record_path;
  // The engine publishes the closing session's stats (last close wins).
  last_stats_ = FormatStats(
      live_engine_->executor_stats(), live_engine_->num_queries(),
      live_engine_->num_groups(), live_engine_->num_indexed_groups(),
      live_member_index_, alerts_.size(), live_engine_->query_stats());
  last_errors_ = live_engine_->errors().ToString();
  live_sessions_.erase(id);
  out_ << "session closed: " << alerts_.size() << " alert(s) total";
  if (!live_sessions_.empty()) {
    out_ << " (" << live_sessions_.size() << " session"
         << (live_sessions_.size() == 1 ? "" : "s") << " still open)";
  }
  out_ << "\n";
  if (live_sessions_.empty()) {
    live_engine_.reset();
    current_session_ = 0;
  } else {
    current_session_ = live_sessions_.rbegin()->first;
  }
  if (!record_path.empty()) {
    if (record_st.ok()) {
      out_ << "recording complete: " << recorded << " events durable in "
           << record_path << "\n";
    } else {
      out_ << "recording failed: " << record_st << " — run 'recover "
           << record_path << "' to salvage the durable prefix\n";
      exit_code_ = 1;
    }
  }
}

// ---------------------------------------------------------------------
// Inspection.

void QueryShell::CmdAlerts(const std::vector<std::string>& args) {
  size_t n = 10;
  if (!args.empty()) {
    n = static_cast<size_t>(std::strtoul(args[0].c_str(), nullptr, 10));
    if (n == 0) n = 10;
  }
  if (alerts_.empty()) {
    out_ << "(no alerts)\n";
    return;
  }
  TextTable table({"time", "query", "group", "values"});
  size_t start = alerts_.size() > n ? alerts_.size() - n : 0;
  for (size_t i = start; i < alerts_.size(); ++i) {
    const Alert& a = alerts_[i];
    std::string values;
    for (const auto& [label, value] : a.values) {
      if (!values.empty()) values += ", ";
      values += label + "=" + value.ToString();
    }
    table.AddRow({FormatTimestamp(a.ts), a.query_name, a.group, values});
  }
  out_ << table.Render();
}

void QueryShell::CmdIndex(const std::vector<std::string>& args) {
  if (args.empty()) {
    out_ << "index = " << (member_index_ ? "on" : "off")
         << (member_index_ ? " (shared member-match index)\n"
                           : " (brute-force member loops)\n");
    return;
  }
  std::string v = ToLower(args[0]);
  if (v == "on") {
    SetMemberIndex(true);
  } else if (v == "off") {
    SetMemberIndex(false);
  } else {
    out_ << "usage: index [on|off]\n";
    return;
  }
  out_ << "index = " << (member_index_ ? "on" : "off") << "\n";
  if (session_open()) {
    out_ << "note: the live session keeps its member-matching mode; the "
            "new setting applies from the next 'open' or batch run\n";
  } else {
    out_ << "(applies to the next 'open' or batch run)\n";
  }
}

void QueryShell::CmdStats() {
  if (session_open()) {
    auto it = live_sessions_.find(current_session_);
    if (it != live_sessions_.end()) {
      SaqlEngine::Session& s = *it->second.session;
      if (live_sessions_.size() > 1) {
        out_ << "stats for session #" << current_session_
             << " (the current one; 'session #id' selects another)\n";
      }
      out_ << FormatStats(s.executor_stats(), s.num_active_queries(),
                          s.num_groups(), s.num_indexed_groups(),
                          live_member_index_, alerts_.size(),
                          s.query_stats());
      return;
    }
  }
  out_ << (last_stats_.empty() ? "(no run yet)\n" : last_stats_);
}

void QueryShell::CmdErrors() {
  if (session_open()) {
    out_ << live_engine_->errors().ToString() << "\n";
    return;
  }
  out_ << (last_errors_.empty() ? "(no run yet)\n" : last_errors_) << "\n";
}

}  // namespace saql
