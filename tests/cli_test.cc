#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/shell.h"
#include "cli/table.h"
#include "test_util.h"

namespace saql {
namespace {

TEST(TextTableTest, RendersHeadersAndRows) {
  TextTable t({"query", "alerts"});
  t.AddRow({"q1", "3"});
  t.AddRow({"a-much-longer-name", "12"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| query"), std::string::npos);
  EXPECT_NE(out.find("| a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only-one"});
  std::string out = t.Render();
  EXPECT_EQ(t.num_rows(), 1u);
  // Renders without crashing and keeps the column count.
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

class ShellHarness {
 public:
  ShellHarness() : shell_(in_, out_) {}

  std::string Run(const std::string& command) {
    out_.str("");
    shell_.Execute(command);
    return out_.str();
  }

  QueryShell& shell() { return shell_; }

 private:
  std::istringstream in_;
  std::ostringstream out_;
  QueryShell shell_{in_, out_};
};

TEST(QueryShellTest, HelpListsCommands) {
  ShellHarness h;
  std::string out = h.Run("help");
  EXPECT_NE(out.find("simulate"), std::string::npos);
  EXPECT_NE(out.find("replay"), std::string::npos);
}

TEST(QueryShellTest, UnknownCommandSuggestsHelp) {
  ShellHarness h;
  EXPECT_NE(h.Run("frobnicate").find("help"), std::string::npos);
}

TEST(QueryShellTest, InlineQueryRegistration) {
  ShellHarness h;
  std::string out =
      h.Run("query exfil proc p write ip i as e return p, i");
  EXPECT_NE(out.find("registered"), std::string::npos);
  EXPECT_EQ(h.shell().queries().count("exfil"), 1u);
}

TEST(QueryShellTest, InvalidInlineQueryRejected) {
  ShellHarness h;
  std::string out = h.Run("query broken this is not saql");
  EXPECT_NE(out.find("rejected"), std::string::npos);
  EXPECT_TRUE(h.shell().queries().empty());
}

TEST(QueryShellTest, LoadQueryFile) {
  ShellHarness h;
  std::string path = std::string(SAQL_QUERY_DIR) + "/query1_rule.saql";
  std::string out = h.Run("load " + path + " q1");
  EXPECT_NE(out.find("loaded"), std::string::npos);
  EXPECT_EQ(h.shell().queries().count("q1"), 1u);
}

TEST(QueryShellTest, LoadMissingFileFails) {
  ShellHarness h;
  EXPECT_NE(h.Run("load /no/such/file.saql").find("cannot open"),
            std::string::npos);
}

TEST(QueryShellTest, LintCommandReportsDiagnostics) {
  ShellHarness h;
  std::string out = h.Run("lint");
  EXPECT_NE(out.find("usage: lint"), std::string::npos);
  // Corpus file: clean.
  std::string path = std::string(SAQL_QUERY_DIR) + "/query1_rule.saql";
  out = h.Run("lint " + path);
  EXPECT_NE(out.find("0 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos)
      << out;
  EXPECT_NE(h.Run("lint /no/such.saql").find("cannot open"),
            std::string::npos);
}

// `lint` and `explain` share one compile step; their exact lines are
// pinned: a compile failure prints "<label>: compile error: <status>" and
// linting goes on with the next target.
TEST(QueryShellTest, LintAndExplainPinTheirLines) {
  std::string bad =
      (std::filesystem::temp_directory_path() / "saql_cli_lint_bad.saql")
          .string();
  std::ofstream(bad) << "proc p wrte file f as e return p\n";
  ShellHarness h;
  EXPECT_EQ(h.Run("lint " + bad + " /no/such.saql"),
            bad + ": compile error: ParseError: unknown operation 'wrte'\n"
                  "/no/such.saql: cannot open\n");
  std::filesystem::remove(bad);

  h.Run("query x proc p write file f as e return p");
  std::string out = h.Run("lint");
  EXPECT_EQ(out.rfind("x:\n  warning SA041 at 1:14-20: unused pattern "
                      "variable 'f'",
                      0),
            0u)
      << out;
  EXPECT_NE(out.find("\n  0 error(s), 1 warning(s), 0 note(s)\n"),
            std::string::npos)
      << out;
  out = h.Run("explain x");
  EXPECT_EQ(out.rfind("  warning SA041 at 1:14-20: unused pattern "
                      "variable 'f'",
                      0),
            0u)
      << out;
  EXPECT_NE(out.find("\n  0 error(s), 1 warning(s), 0 note(s)\n"),
            std::string::npos)
      << out;
}

// `explain` prints one registered query's lint findings.
TEST(QueryShellTest, ExplainShowsLintFindings) {
  ShellHarness h;
  EXPECT_NE(h.Run("explain nothere").find("no query named"),
            std::string::npos);
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  EXPECT_EQ(h.Run("explain exfil"), "  0 error(s), 0 warning(s), 0 note(s)\n");
  std::string path = std::string(SAQL_QUERY_DIR) + "/query1_rule.saql";
  h.Run("load " + path + " q1");
  EXPECT_EQ(h.Run("explain q1"), "  0 error(s), 0 warning(s), 0 note(s)\n");
}

TEST(QueryShellTest, HelpListsLintFleetAndExplain) {
  ShellHarness h;
  std::string out = h.Run("help");
  EXPECT_NE(out.find("lint [file...]"), std::string::npos);
  EXPECT_NE(out.find("fleet"), std::string::npos);
  EXPECT_NE(out.find("explain <name>"), std::string::npos);
}

TEST(QueryShellTest, LintWithoutArgsLintsRegisteredQueries) {
  ShellHarness h;
  h.Run("query dead proc p start file f as e return p");
  std::string out = h.Run("lint");
  // The registered query's name heads its findings; SA003 (dead pattern)
  // and SA041 (unused f) both surface.
  EXPECT_NE(out.find("dead"), std::string::npos);
  EXPECT_NE(out.find("SA003"), std::string::npos);
  EXPECT_NE(out.find("SA041"), std::string::npos);
}

TEST(QueryShellTest, FixtureDuplicatePairDrawsSA050EndToEnd) {
  // The intentionally duplicated pair under queries/apt/fixtures/ (kept
  // out of the linted corpus): loading both and running `fleet` must
  // surface the SA050 double-alerting warning through the CLI layer.
  ShellHarness h;
  std::string dir = std::string(SAQL_QUERY_DIR) + "/apt/fixtures/";
  EXPECT_NE(h.Run("load " + dir + "dup_dropper_write_a.saql dup_a")
                .find("loaded"),
            std::string::npos);
  EXPECT_NE(h.Run("load " + dir + "dup_dropper_write_b.saql dup_b")
                .find("loaded"),
            std::string::npos);
  std::string out = h.Run("fleet");
  EXPECT_NE(out.find("SA050"), std::string::npos) << out;
  EXPECT_NE(out.find("'dup_b' duplicates 'dup_a'"), std::string::npos) << out;
  EXPECT_NE(out.find("exact duplicate of fleet query 'dup_a'"),
            std::string::npos)
      << out;
}

TEST(QueryShellTest, FleetCommandReportsCrossQueryRelations) {
  ShellHarness h;
  EXPECT_NE(h.Run("fleet").find("no queries"), std::string::npos);
  h.Run("query qa proc p[\"%m.exe\"] write file f as e return p, f");
  h.Run("query qb proc q[\"%M.EXE\"] write file g as ev return q, g");
  std::string out = h.Run("fleet");
  EXPECT_NE(out.find("2 query(ies), 1 relation(s)"), std::string::npos);
  EXPECT_NE(out.find("SA050"), std::string::npos);
  EXPECT_NE(out.find("duplicates"), std::string::npos);
  EXPECT_NE(out.find("file/write: 2"), std::string::npos);
}

TEST(QueryShellTest, SimulateWithoutQueriesWarns) {
  ShellHarness h;
  EXPECT_NE(h.Run("simulate 1").find("no queries"), std::string::npos);
}

TEST(QueryShellTest, SimulateRunsAndReportsAlerts) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  std::string out = h.Run("simulate 16");
  EXPECT_NE(out.find("run complete"), std::string::npos);
  EXPECT_FALSE(h.shell().alerts().empty());
  // Alerts table works afterwards.
  std::string alerts = h.Run("alerts");
  EXPECT_NE(alerts.find("exfil"), std::string::npos);
}

TEST(QueryShellTest, SimulateRefusesUnknownFlag) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  // Read as minutes, the flag would parse to 0 and run the 30-minute
  // default.
  std::string out = h.Run("simulate --shards=2");
  EXPECT_NE(out.find("unknown flag '--shards=2'"), std::string::npos) << out;
  EXPECT_NE(out.find("usage: simulate [minutes]"), std::string::npos) << out;
  EXPECT_EQ(out.find("simulating"), std::string::npos) << out;
  EXPECT_EQ(out.find("run complete"), std::string::npos) << out;
}

TEST(QueryShellTest, RecordRefusesUnknownFlag) {
  ShellHarness h;
  std::string log = ::testing::TempDir() + "/shell_flag.saqllog";
  std::filesystem::remove(log);
  std::string out = h.Run("record " + log + " 1 --bogus");
  EXPECT_NE(out.find("unknown flag '--bogus'"), std::string::npos) << out;
  EXPECT_EQ(out.find("recorded"), std::string::npos) << out;
  EXPECT_FALSE(std::filesystem::exists(log));
}

TEST(QueryShellTest, StatsAvailableAfterRun) {
  ShellHarness h;
  EXPECT_NE(h.Run("stats").find("no run yet"), std::string::npos);
  h.Run("query q proc p read file f as e alert e.amount > 999999999 "
        "return p");
  h.Run("simulate 1");
  std::string stats = h.Run("stats");
  EXPECT_NE(stats.find("events="), std::string::npos);
  EXPECT_NE(stats.find("q:"), std::string::npos);
}

TEST(QueryShellTest, RecordAndReplayRoundTrip) {
  ShellHarness h;
  std::string log = ::testing::TempDir() + "/shell_demo.saqllog";
  std::string out = h.Run("record " + log + " 1");
  EXPECT_NE(out.find("recorded"), std::string::npos);
  h.Run("query any proc p write ip i as e alert e.amount > 100000000 "
        "return p");
  out = h.Run("replay " + log);
  EXPECT_NE(out.find("run complete"), std::string::npos);
  // A flag is not a host name: `replay` refuses it instead of replaying
  // nothing.
  out = h.Run("replay " + log + " --shards=2");
  EXPECT_NE(out.find("unknown flag '--shards=2'"), std::string::npos) << out;
  EXPECT_EQ(out.find("run complete"), std::string::npos) << out;
}

TEST(QueryShellTest, QuitStopsLoop) {
  std::istringstream in("help\nquit\n");
  std::ostringstream out;
  QueryShell shell(in, out);
  shell.Run();  // must terminate
  EXPECT_NE(out.str().find("bye"), std::string::npos);
}

TEST(QueryShellTest, AlertsEmptyBeforeRun) {
  ShellHarness h;
  EXPECT_NE(h.Run("alerts").find("no alerts"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live-session mode.

TEST(QueryShellLiveTest, PushRequiresOpenSession) {
  ShellHarness h;
  EXPECT_NE(h.Run("push 1").find("no live session"), std::string::npos);
  EXPECT_NE(h.Run("close").find("no live session"), std::string::npos);
  EXPECT_NE(h.Run("session").find("no live session"), std::string::npos);
}

TEST(QueryShellTest, OpenAndPushRefuseUnknownFlags) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  std::string out = h.Run("open --bogus");
  EXPECT_NE(out.find("unknown flag '--bogus'"), std::string::npos) << out;
  EXPECT_EQ(out.find("session open"), std::string::npos) << out;
  EXPECT_NE(h.Run("sessions").find("no live sessions"), std::string::npos);

  ASSERT_NE(h.Run("open").find("session open"), std::string::npos);
  out = h.Run("push --minutes=2");
  EXPECT_NE(out.find("unknown flag '--minutes=2'"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("pushed"), std::string::npos) << out;
}

TEST(QueryShellTest, MinuteCountsMustBePositiveIntegers) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  // Read with strtol, "1x" ran 1 minute and "0" the 30-minute default.
  for (const char* bad : {"1x", "0", "-2", "abc", "999999999"}) {
    std::string out = h.Run(std::string("simulate ") + bad);
    EXPECT_NE(out.find(std::string("bad argument '") + bad +
                       "' — usage: simulate [minutes]"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("simulating"), std::string::npos) << out;
  }

  std::string log = ::testing::TempDir() + "/shell_minutes.saqllog";
  std::filesystem::remove(log);
  std::string out = h.Run("record " + log + " 2m");
  EXPECT_NE(out.find("bad argument '2m' — usage: record"), std::string::npos)
      << out;
  EXPECT_FALSE(std::filesystem::exists(log));

  ASSERT_NE(h.Run("open").find("session open"), std::string::npos);
  // Read with strtol, "abc" pushed the default 5 minutes.
  for (const char* bad : {"abc", "-3", "5.5"}) {
    out = h.Run(std::string("push ") + bad);
    EXPECT_NE(out.find(std::string("bad argument '") + bad +
                       "' — usage: push [#id] [minutes]"),
              std::string::npos)
        << out;
    EXPECT_EQ(out.find("pushed"), std::string::npos) << out;
  }
  out = h.Run("push 1");
  EXPECT_NE(out.find("(1min of traffic"), std::string::npos) << out;
}

TEST(QueryShellTest, OpenRefusesPositionalArgument) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  std::string out = h.Run("open foo");
  EXPECT_NE(out.find("bad argument 'foo' — usage: open"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("session open"), std::string::npos) << out;
  EXPECT_NE(h.Run("sessions").find("no live sessions"), std::string::npos);
}

TEST(QueryShellLiveTest, FullLifecycleScript) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");

  std::string out = h.Run("open");
  EXPECT_NE(out.find("session open with 1 query (#1)"), std::string::npos)
      << out;
  EXPECT_TRUE(h.shell().session_open());

  // A second concurrent open succeeds, becomes current, and closes
  // independently — the first session keeps streaming.
  std::string out2 = h.Run("open");
  EXPECT_NE(out2.find("now current"), std::string::npos);
  EXPECT_EQ(h.shell().open_session_count(), 2u);
  out2 = h.Run("sessions");
  EXPECT_NE(out2.find("2 live sessions"), std::string::npos);
  out2 = h.Run("close");
  EXPECT_NE(out2.find("still open"), std::string::npos);
  EXPECT_EQ(h.shell().open_session_count(), 1u);

  // The APT attack starts 12 minutes in; 16 minutes of traffic alerts.
  out = h.Run("push 16");
  EXPECT_NE(out.find("pushed"), std::string::npos);
  EXPECT_NE(out.find("ALERT exfil"), std::string::npos);
  EXPECT_FALSE(h.shell().alerts().empty());
  size_t alerts_after_first = h.shell().alerts().size();

  // Attach a query mid-stream; it participates in the next push.
  out = h.Run("add osql proc p[\"%osql.exe\"] start proc q as e "
              "return p, q");
  EXPECT_NE(out.find("attached query 'osql' mid-stream"),
            std::string::npos);
  EXPECT_EQ(h.shell().queries().count("osql"), 1u);

  out = h.Run("push 8");
  EXPECT_NE(out.find("pushed"), std::string::npos);

  out = h.Run("session");
  EXPECT_NE(out.find("2 active queries"), std::string::npos);

  // Live stats include both queries.
  out = h.Run("stats");
  EXPECT_NE(out.find("events="), std::string::npos);
  EXPECT_NE(out.find("exfil:"), std::string::npos);
  EXPECT_NE(out.find("osql:"), std::string::npos);

  // Retract mid-stream: final stats are reported and retained.
  out = h.Run("remove exfil");
  EXPECT_NE(out.find("removed query 'exfil'"), std::string::npos);
  EXPECT_NE(out.find("final:"), std::string::npos);
  EXPECT_EQ(h.shell().queries().count("exfil"), 0u);

  out = h.Run("close");
  EXPECT_NE(out.find("session closed"), std::string::npos);
  EXPECT_FALSE(h.shell().session_open());
  EXPECT_GE(h.shell().alerts().size(), alerts_after_first);

  // Post-close, `stats` serves the session's final snapshot.
  out = h.Run("stats");
  EXPECT_NE(out.find("exfil:"), std::string::npos);
}

TEST(QueryShellLiveTest, SessionAddressingTargetsById) {
  ShellHarness h;
  h.Run("query exfil proc p[\"%sbblv.exe\"] write ip i as e "
        "return distinct p, i");
  h.Run("open");
  h.Run("open");
  EXPECT_EQ(h.shell().open_session_count(), 2u);

  // Explicit #1 pushes into the first session and selects it as current.
  std::string out = h.Run("push #1 16");
  EXPECT_NE(out.find("session #1 total"), std::string::npos);

  out = h.Run("session #2");
  EXPECT_NE(out.find("session #2 (current)"), std::string::npos);
  EXPECT_NE(out.find("0 events pushed"), std::string::npos);

  EXPECT_NE(h.Run("push #7").find("no open session #7"),
            std::string::npos);

  // Close the current (#2); #1 becomes current again and closes last.
  EXPECT_NE(h.Run("close").find("still open"), std::string::npos);
  out = h.Run("close");
  EXPECT_NE(out.find("session closed"), std::string::npos);
  EXPECT_FALSE(h.shell().session_open());
}

TEST(QueryShellLiveTest, AddWithoutSessionRegisters) {
  ShellHarness h;
  std::string out = h.Run("add q proc p write ip i as e return p");
  EXPECT_NE(out.find("registered query 'q'"), std::string::npos);
  EXPECT_EQ(h.shell().queries().count("q"), 1u);
  // remove without a session unregisters.
  EXPECT_NE(h.Run("remove q").find("unregistered"), std::string::npos);
  EXPECT_TRUE(h.shell().queries().empty());
  EXPECT_NE(h.Run("remove q").find("no query"), std::string::npos);
}

// A mid-session `add` of a statically broken query must report the
// diagnostic list (not just a status blob) and leave the session state
// untouched: no phantom registration, later adds and pushes still work.
TEST(QueryShellLiveTest, AddRejectedByLintReportsDiagnosticsAndKeepsState) {
  ShellHarness h;
  h.Run("open");
  ASSERT_TRUE(h.shell().session_open());
  std::string out =
      h.Run("add dead proc p[pid > 100, pid <= 50] write ip i as e "
            "return p");
  EXPECT_NE(out.find("add failed"), std::string::npos);
  EXPECT_NE(out.find("SA001"), std::string::npos);
  EXPECT_NE(out.find("error"), std::string::npos);
  // Untouched: not registered in the shell, not active in the session.
  EXPECT_EQ(h.shell().queries().count("dead"), 0u);
  std::string status = h.Run("session");
  EXPECT_NE(status.find("0 active queries"), std::string::npos);
  // The session still accepts a good query and traffic after the reject.
  out = h.Run("add good proc p[\"%sbblv.exe\"] write ip i as e "
              "return distinct p, i");
  EXPECT_NE(out.find("attached query 'good'"), std::string::npos);
  EXPECT_NE(h.Run("push 4").find("pushed"), std::string::npos);
  h.Run("close");
}

// Warnings do not reject a mid-session add, but they print.
TEST(QueryShellLiveTest, AddWithWarningPrintsFindingAndAttaches) {
  ShellHarness h;
  h.Run("open");
  std::string out = h.Run("add warn proc p start file f as e return p");
  EXPECT_NE(out.find("SA003"), std::string::npos);
  EXPECT_NE(out.find("attached query 'warn'"), std::string::npos);
  EXPECT_EQ(h.shell().queries().count("warn"), 1u);
  h.Run("close");
}

// `index` changed while a live session runs must say it does not
// reconfigure it — and say when it does apply.
TEST(QueryShellLiveTest, IndexReportsAgainstLiveSession) {
  ShellHarness h;
  h.Run("query q proc p write ip i as e return p");

  // No session: the report says the setting applies to the next run.
  std::string out = h.Run("index off");
  EXPECT_NE(out.find("applies to the next"), std::string::npos);
  h.Run("index on");

  h.Run("open");
  ASSERT_TRUE(h.shell().session_open());
  out = h.Run("index off");
  EXPECT_NE(out.find("live session keeps its member-matching mode"),
            std::string::npos);
  EXPECT_FALSE(h.shell().member_index());
  h.Run("close");
}

TEST(QueryShellLiveTest, LoadDuringSessionPointsAtAdd) {
  ShellHarness h;
  h.Run("open");
  std::string path = std::string(SAQL_QUERY_DIR) + "/query1_rule.saql";
  std::string out = h.Run("load " + path + " q1");
  EXPECT_NE(out.find("use 'add'"), std::string::npos);
  h.Run("close");
}

}  // namespace
}  // namespace saql
