// The SAQL command-line UI (Fig. 3 of the paper): interactively register
// queries, simulate or replay monitoring data, and inspect alerts — either
// as one-shot batch runs, or against a live push-driven engine session
// that queries can join and leave mid-stream (the deployed-monitor mode).
//
//   $ ./saql_shell [--member-index=on|off]
//   saql> load queries/query1_rule.saql exfil
//   saql> simulate 30                  # one-shot batch run
//   saql> open                         # ... or go live
//   saql> push 16                      # stream simulated traffic in
//   saql> add lateral proc p["%osql.exe"] start proc q as e return p, q
//   saql> push 16                      # 'lateral' sees only these events
//   saql> remove exfil                 # retract; final stats retained
//   saql> stats
//   saql> close
//   saql> quit
//
// --member-index=off falls back to brute-force member matching (the
// ablation baseline; also settable per session with the `index` command).

#include <iostream>
#include <string>

#include "cli/shell.h"

int main(int argc, char** argv) {
  saql::QueryShell shell(std::cin, std::cout);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--member-index=", 0) == 0) {
      std::string v = arg.substr(15);
      if (v != "on" && v != "off") {
        std::cerr << "invalid value in '" << arg
                  << "' (expected --member-index=on|off)\n";
        return 2;
      }
      shell.SetMemberIndex(v == "on");
    } else {
      std::cerr << "unknown flag '" << arg
                << "' (supported: --member-index=on|off)\n";
      return 2;
    }
  }
  shell.Run();
  // Nonzero after a durability failure (failed record/recover, or a live
  // recording that ended in error) so scripts can detect data loss.
  return shell.exit_code();
}
