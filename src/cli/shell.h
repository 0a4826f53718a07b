#ifndef SAQL_CLI_SHELL_H_
#define SAQL_CLI_SHELL_H_

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/time_util.h"
#include "engine/alert.h"
#include "engine/engine.h"
#include "parser/analyzer.h"

namespace saql {

/// The SAQL command-line UI (Fig. 3 of the paper): load queries, replay or
/// simulate a stream, and inspect alerts/errors interactively. The shell is
/// a library class so tests can drive it with string streams; the
/// `saql_shell` example binds it to stdin/stdout.
///
/// Batch commands:
///   load <file> [name]       load a .saql query file
///   query <name> <text...>   register an inline query (single line)
///   list                     list registered queries
///   simulate [minutes]       run the enterprise simulator + APT attack
///   replay <log> [host...]   replay a stored event log (all hosts or a
///                            subset), at maximum speed
///   record <log> [minutes]   simulate and store events into a log file
///                            through the durable WAL pipeline
///                            (`--sync=always|group|none` picks the ack
///                            policy)
///   recover <log>            recover a durable log after a crash
///                            (segments + WAL tail) and compact it back
///                            to a pure columnar log
///
/// Live-session commands (the deployed-monitor mode: long-lived
/// push-driven engine sessions that queries can join and leave
/// mid-stream). Any number of sessions can be open at once — they are
/// isolated tenants of one engine, each with its own clock, query set,
/// and optional recording. `open` makes the new session
/// *current*; every session-addressed command targets the current session
/// unless given an explicit `#<id>`:
///   open                     open another live session over the
///                            registered queries (`--record=<log>
///                            [--sync=P] [--force]` also records every
///                            pushed event durably; `--force` discards
///                            stale WAL files a crashed earlier
///                            incarnation left at the log path)
///   push [#id] [minutes]     simulate a chunk of enterprise traffic and
///                            push it into a session (each session's
///                            clock continues across its pushes)
///   add [#id] <name> <text>  attach a query mid-stream to one session
///                            (falls back to plain registration when no
///                            session is open)
///   remove [#id] <name>      retract a query (live if a session is open)
///   session [#id]            one session's status; also selects it as
///                            current when an id is given
///   sessions                 list all open sessions
///   close [#id]              close a session (the engine publishes the
///                            last-closed stats once all are closed)
///
/// Inspection:
///   lint [file...]           static-analysis diagnostics for .saql files;
///                            with no arguments, lints every registered
///                            query
///   fleet                    cross-query analysis of the registered set:
///                            exact duplicates (SA050), subsumption
///                            (SA051), and routing-envelope overlap per
///                            (object type, op) cell
///   alerts [n]               show the last n alerts (default 10)
///   index [on|off]           show or toggle shared member-match indexing
///   stats                    engine statistics (live session or last run)
///   errors                   error-reporter contents
///   help                     command summary
///   quit                     leave the shell
///
/// `index` applies to the *next* engine build: batch runs pick it up
/// immediately (each builds a fresh engine); an open live session keeps
/// its configuration and the shell says so explicitly.
class QueryShell {
 public:
  QueryShell(std::istream& in, std::ostream& out);
  ~QueryShell();

  /// Runs the read-eval-print loop until quit/EOF.
  void Run();

  /// Executes one command line; returns false when the shell should exit.
  bool Execute(const std::string& line);

  /// Enables/disables the shared member-matching ConstraintIndex for
  /// subsequent runs (the `index on|off` command; on by default — off is
  /// the brute-force ablation baseline).
  void SetMemberIndex(bool on) { member_index_ = on; }
  bool member_index() const { return member_index_; }

  /// Alerts collected by the last simulate/replay command, or by the live
  /// session since `open`.
  const std::vector<Alert>& alerts() const { return alerts_; }

  /// Registered (name, text) pairs.
  const std::map<std::string, std::string>& queries() const {
    return queries_;
  }

  bool session_open() const { return !live_sessions_.empty(); }
  size_t open_session_count() const { return live_sessions_.size(); }

  /// Process exit code for the embedding binary: 0 until a durability
  /// failure (failed `record`, failed recovery, or a live recording that
  /// ended in error) was reported; then 1, sticky.
  int exit_code() const { return exit_code_; }

 private:
  void CmdHelp();
  void CmdLoad(const std::vector<std::string>& args);
  void CmdQueryInline(const std::string& rest);
  void CmdList();
  void CmdLint(const std::vector<std::string>& args);
  void CmdFleet();
  void CmdExplain(const std::vector<std::string>& args);
  void CmdSimulate(const std::vector<std::string>& args);
  void CmdReplay(const std::vector<std::string>& args);
  void CmdRecord(const std::vector<std::string>& args);
  void CmdRecover(const std::vector<std::string>& args);
  void CmdAlerts(const std::vector<std::string>& args);
  void CmdIndex(const std::vector<std::string>& args);
  void CmdStats();
  void CmdErrors();

  // Live-session commands.
  void CmdOpen(const std::vector<std::string>& args);
  void CmdPush(const std::vector<std::string>& args);
  void CmdAdd(const std::string& rest);
  void CmdRemove(const std::vector<std::string>& args);
  void CmdSessionStatus(const std::vector<std::string>& args);
  void CmdSessions();
  void CmdClose(const std::vector<std::string>& args);

  /// Renders a lint finding list (one line per diagnostic, then the
  /// error/warning summary line).
  void PrintDiagnostics(const std::vector<Diagnostic>& diagnostics);

  /// Renders the engine/session statistics block shown by `stats`.
  std::string FormatStats(
      const ExecutorStats& exec, size_t num_queries, size_t num_groups,
      size_t indexed_groups, bool member_indexed, size_t num_alerts,
      const std::vector<std::pair<std::string, CompiledQuery::QueryStats>>&
          query_stats) const;

  /// Strips a `--sync=P` flag out of `args` into `policy` (untouched when
  /// the flag is absent; malformed values are reported and ignored).
  void ConsumeSyncFlag(std::vector<std::string>* args, SyncPolicy* policy);

  /// Refuses the first `--` argument left in `args` (call it once the
  /// command's known flags are consumed): prints it with `usage` and
  /// returns true. A stray flag would otherwise be read as a positional
  /// argument, or dropped.
  bool RejectUnknownFlag(const std::vector<std::string>& args,
                         const char* usage);

  /// Refuses `arg` the way `RejectUnknownFlag` refuses a flag: prints it
  /// with `usage`.
  void BadArgument(const std::string& arg, const char* usage);

  /// Reads `token` as a minute count: the whole token must be a positive
  /// integer. Anything else is a `BadArgument` and returns false, never a
  /// silent default.
  bool ParseMinutes(const std::string& token, const char* usage,
                    Duration* duration);

  /// One open live session of the shared engine, with the shell-side
  /// drive state (the per-session simulator clock and counters).
  struct LiveSession {
    std::unique_ptr<SaqlEngine::Session> session;
    Timestamp clock = 0;        ///< next push's simulator start time
    uint64_t pushes = 0;        ///< varies the per-push simulator seed
    uint64_t events = 0;        ///< events pushed so far
    std::string record_path;    ///< durable recording target ("" = off)
    bool record_failed = false;  ///< already reported mid-session
  };

  /// Strips a `#<id>` session reference out of `args`. Returns the
  /// addressed live session — the explicit one, else the current one —
  /// or nullptr (with a message) when the reference is unknown or no
  /// session is open.
  LiveSession* ConsumeSessionRef(std::vector<std::string>* args);

  /// Renders one session's status line.
  void PrintSessionStatus(uint64_t id, LiveSession& ls);

  /// Runs all registered queries against `source`, capturing alerts.
  void RunEngine(class EventSource* source);

  std::istream& in_;
  std::ostream& out_;
  std::map<std::string, std::string> queries_;
  std::vector<Alert> alerts_;
  std::string last_stats_;
  std::string last_errors_;
  bool member_index_ = true;
  int exit_code_ = 0;

  // Live multi-session state. One shared engine hosts every open session
  // (created at the first `open`, torn down when the last session
  // closes); sessions must die before it. Keyed by engine-assigned
  // session id; `current_session_` is the default target of
  // session-addressed commands (the last opened/selected).
  std::unique_ptr<SaqlEngine> live_engine_;
  std::map<uint64_t, LiveSession> live_sessions_;
  uint64_t current_session_ = 0;
  bool live_member_index_ = true;  ///< member-matching mode at engine build
};

}  // namespace saql

#endif  // SAQL_CLI_SHELL_H_
