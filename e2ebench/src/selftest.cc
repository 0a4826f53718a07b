// Pass-hygiene self-test of the end-to-end benchmark, on small inputs of
// every workload:
//  - every pass hands Push events with syms.gen == 0, although the pass
//    before it left the input interned (Push interns in place, so an
//    un-reset input would let later passes skip the interning work);
//  - every recorded pass uses a fresh record path and removes it, because
//    DurableLogWriter refuses to open over leftover `.wal.N` files;
//  - the process never runs more threads than there are cores;
//  - churn happens at the schedule's fixed input positions, whatever the
//    batching (closed loop vs open loop);
//  - closed-loop, open-loop and reference (direct, unrecorded) passes
//    raise the same alerts.
//
//   e2e_selftest [workdir]      exit status 0 = all checks passed

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "runner.h"
#include "storage/durable_log.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void CheckWorkload(const std::string& name, const std::string& base) {
  e2e::ScratchDir dir(base);
  Check(dir.ok(), name + ": scratch directory created");
  if (!dir.ok()) return;
  e2e::Workload w;
  saql::Status st = e2e::MakeWorkload(name, 7, 0.02, &w);
  Check(st.ok(), name + ": workload built (" + st.ToString() + ")");
  if (!st.ok()) return;
  e2e::Tracer tracer(false);
  e2e::Runner run(&w, &dir, &tracer);

  e2e::PassOptions direct;
  direct.record = 0;
  e2e::PassResult ref = run.RunPass(direct);
  e2e::PassResult closed = run.RunPass(e2e::PassOptions{});
  bool stamped = false;
  for (const saql::Event& e : w.events) stamped |= e.syms.gen != 0;
  Check(stamped, name + ": a pass leaves the input interned");
  e2e::PassOptions open_opts;
  open_opts.open_loop = true;
  e2e::PassResult open = run.RunPass(open_opts);

  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<size_t> schedule;
  for (const e2e::ChurnOp& op : w.churn) schedule.push_back(op.position);
  for (const e2e::PassResult* p : {&ref, &closed, &open}) {
    Check(p->syms_clean_at_start, name + ": pass starts with syms.gen == 0");
    Check(p->threads_max > 0 && p->threads_max <= nproc,
          name + ": threads " + std::to_string(p->threads_max) +
              " <= nproc " + std::to_string(nproc));
    Check(p->churn_positions == schedule,
          name + ": churn at the schedule's positions");
    Check(p->events == w.events.size(), name + ": every event pushed");
    Check(p->multiset == ref.multiset && !ref.multiset.empty(),
          name + ": alert multiset equals the reference (" +
              std::to_string(p->multiset.size()) + ")");
    Check(p->must_alert_ok, name + ": required detections present");
    if (!p->record_path.empty()) {
      Check(p->record_ok, name + ": recording replays whole and is removed");
      Check(!std::filesystem::exists(p->record_path),
            name + ": record path gone after the pass");
    }
  }
  if (w.record) {
    Check(!closed.record_path.empty() &&
              closed.record_path != open.record_path,
          name + ": each pass records to a fresh path");
  }
  Check(run.failed() == 0, name + ": no failed operation (" +
                               std::to_string(run.failed()) + " of " +
                               std::to_string(run.attempted()) + ")");
}

/// Why record paths must be fresh: a leftover WAL file makes the durable
/// writer refuse the path, and ScratchDir removes everything it made.
void CheckStaleWalRefused(const std::string& base) {
  std::string kept;
  {
    e2e::ScratchDir dir(base);
    kept = dir.path();
    std::string path = dir.NewPath("rec") + ".saqllog";
    std::ofstream(path + ".wal.0") << "stale";
    saql::DurableLogWriter::Options o;
    saql::DurableLogWriter writer(path, o);
    Check(writer.status().code() == saql::StatusCode::kFailedPrecondition,
          "leftover .wal.0 is refused with FailedPrecondition");
    Check(dir.NewPath("rec") != dir.NewPath("rec"), "NewPath never repeats");
  }
  Check(!std::filesystem::exists(kept), "scratch directory removed on exit");
}

}  // namespace

int main(int argc, char** argv) {
  std::string base = argc > 1 ? argv[1] : ".bench_build/e2ebench-selftest";
  CheckStaleWalRefused(base);
  for (const std::string& name : e2e::WorkloadNames()) {
    CheckWorkload(name, base);
  }
  std::printf("%s (%d failures)\n", failures == 0 ? "PASSED" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
