// End-to-end benchmark of the SAQL engine's deployed path: events pushed
// into a Session (optionally recorded through the WAL), matched, windowed,
// and delivered as alerts.
//
//   saql_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md in this directory for what each workload
// and metric measures.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "core/interner.h"
#include "engine/compiled_query.h"
#include "parser/analyzer.h"
#include "runner.h"
#include "stats.h"
#include "storage/durable_log.h"
#include "storage/replayer.h"

namespace {

using e2e::Median;
using e2e::NowNs;
using e2e::PassOptions;
using e2e::PassResult;
using e2e::Quantile;
using e2e::Runner;
using e2e::ScopedSpan;
using e2e::Tracer;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir = ".bench_build/e2ebench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--workdir") a->workdir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Collects metrics in output order.
class Metrics {
 public:
  /// A failed pass can leave a figure undefined (no events, no time); it
  /// is reported as 0 so the line stays valid JSON, and the failure
  /// itself is already counted.
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }
  void Print() const {
    for (const auto& m : items_) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Gates every pass: the alert multiset equals the reference, the attack
/// steps are detected, the recording replays whole, and the pass kept to
/// its hygiene rules (fresh symbols, thread budget, churn positions).
void CheckPass(Runner* run, const PassResult& p, const PassResult& ref,
               const char* what) {
  const e2e::Workload& w = run->workload();
  std::string tag = std::string(what) + ": ";
  run->Gate(p.multiset == ref.multiset,
            tag + "alert multiset (" + std::to_string(p.multiset.size()) +
                ") equals reference (" + std::to_string(ref.multiset.size()) +
                ")");
  run->Gate(p.must_alert_ok, tag + "all attack steps detected");
  run->Gate(p.record_ok, tag + "recording replays to pushed count and is removed");
  run->Gate(p.events == w.events.size(), tag + "every input event pushed");
  run->Gate(p.syms_clean_at_start, tag + "pass starts with syms.gen == 0");
  run->Gate(p.peak_rss_kb > 0, tag + "peak RSS reset and read");
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  run->Gate(p.threads_max <= nproc,
            tag + "threads " + std::to_string(p.threads_max) + " <= nproc " +
                std::to_string(nproc));
  std::vector<size_t> schedule;
  for (const e2e::ChurnOp& op : w.churn) schedule.push_back(op.position);
  run->Gate(p.churn_positions == schedule, tag + "churn at fixed positions");
}

double Throughput(const PassResult& p) {
  return static_cast<double>(p.events) / p.wall_s;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

/// Interference from other tenants of the machine comes and goes at the
/// scale of seconds. So each figure is the median over many passes, which
/// a few disturbed passes do not move. Alert p99 is printed here but
/// reported by the traced run: it is set by host preemption of 10-20 ms,
/// which some runs see in most passes and others in none (see README.md).
void EndToEnd(Runner* run, const PassResult& ref, double seconds,
              long rss_base_kb, Metrics* m) {
  const int64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  const e2e::Workload& w = run->workload();
  const double open_pass_s =
      static_cast<double>(w.events.size()) / w.open_rate_eps;

  // Set-up is measured in slices before every pass, about a tenth of the
  // run's time in all, so its median covers the whole run rather than the
  // machine's state during one burst at the start.
  std::vector<double> setup;
  int64_t setup_ns = 0;
  auto measure_setup = [&] {
    do {
      const int64_t t = NowNs();
      double s = run->MeasureSetup();
      setup_ns += NowNs() - t;
      if (s < 0) return;
      setup.push_back(s);
    } while (static_cast<double>(setup_ns) / 1e9 < 0.1 * elapsed());
  };

  std::vector<double> tput, cpu, rss_mb;
  while (tput.size() < 3 || elapsed() < 0.5 * seconds) {
    measure_setup();
    PassResult p = run->RunPass(PassOptions{});
    CheckPass(run, p, ref, "closed-loop pass");
    tput.push_back(Throughput(p));
    cpu.push_back(p.cpu_s * 1e6 / static_cast<double>(p.events));
    rss_mb.push_back(static_cast<double>(p.peak_rss_kb - rss_base_kb) / 1024.0);
  }

  std::vector<double> p50s, p99s;
  size_t samples = 0;
  while (p99s.size() < 3 || elapsed() < 0.95 * seconds - 0.5 * open_pass_s) {
    measure_setup();
    PassOptions o;
    o.open_loop = true;
    PassResult p = run->RunPass(o);
    CheckPass(run, p, ref, "open-loop pass");
    // p99 needs at least ten samples beyond it in every pass.
    run->Gate(p.latency_ms.size() >= 1000,
              "open-loop pass yields >= 1000 alert samples (" +
                  std::to_string(p.latency_ms.size()) + ")");
    samples += p.latency_ms.size();
    p50s.push_back(Quantile(p.latency_ms, 0.50));
    p99s.push_back(Quantile(p.latency_ms, 0.99));
  }

  std::printf("set-up reps %zu: s p10 %.6f p50 %.6f p90 %.6f\n", setup.size(),
              Quantile(setup, 0.1), Quantile(setup, 0.5), Quantile(setup, 0.9));
  std::printf("closed-loop passes %zu, events/s:", tput.size());
  for (double t : tput) std::printf(" %.0f", t);
  std::printf("\n  peak RSS growth MB:");
  for (double v : rss_mb) std::printf(" %.1f", v);
  std::printf("\nopen-loop passes %zu, alert latency samples %zu "
              "(%zu per pass)\n  p50 ms:", p99s.size(), samples,
              samples / p99s.size());
  for (double v : p50s) std::printf(" %.3f", v);
  std::printf("\n  p99 ms:");
  for (double v : p99s) std::printf(" %.3f", v);
  std::printf("\n");
  m->Add("setup_s", Median(setup), "s");
  m->Add("throughput_eps", Median(tput), "1/s");
  m->Add("cpu_us_per_event", Median(cpu), "us");
  m->Add("alert_p50_ms", Median(p50s), "ms");
  m->Add("rss_growth_mb", Median(rss_mb), "MB");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.
// ---------------------------------------------------------------------------

/// Parser, analysis, and core probes over the workload's query set / input.
void ModuleProbes(Runner* run, Metrics* m) {
  Tracer* tr = run->tracer();
  e2e::Workload& w = run->workload();
  std::vector<double> compile_ms, lint_ms, fleet_ms;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<saql::FleetAnalysis::Member> members;
    std::vector<std::unique_ptr<saql::CompiledQuery>> compiled;
    size_t mark = tr->spans().size();
    for (const e2e::QuerySpec& q : w.queries) {
      saql::Result<saql::AnalyzedQueryPtr> aq = [&] {
        ScopedSpan span(tr, "parser.compile");
        return saql::CompileSaql(q.text);
      }();
      if (!run->Note(aq.status(), "CompileSaql")) return;
      members.push_back({q.name, aq.value()});
      auto cq = saql::CompiledQuery::Create(aq.value(), q.name);
      if (!run->Note(cq.status(), "CompiledQuery::Create")) return;
      compiled.push_back(std::move(cq).value());
    }
    for (const auto& cq : compiled) {
      ScopedSpan span(tr, "analysis.lint");
      (void)saql::QueryAnalysis::Lint(*cq);
    }
    {
      ScopedSpan span(tr, "analysis.fleet");
      (void)saql::FleetAnalysis::Analyze(members);
    }
    compile_ms.push_back(tr->TotalMs("parser.compile", mark));
    lint_ms.push_back(tr->TotalMs("analysis.lint", mark));
    fleet_ms.push_back(tr->TotalMs("analysis.fleet", mark));
  }
  m->Add("parser.compile_ms", Median(compile_ms), "ms");
  m->Add("analysis.lint_ms", Median(lint_ms), "ms");
  m->Add("analysis.fleet_ms", Median(fleet_ms), "ms");

  saql::EventBatch* rows = &w.events;
  std::vector<double> intern_ns;
  for (int rep = 0; rep < 3; ++rep) {
    for (saql::Event& e : *rows) e.syms = saql::EventSymbols{};
    size_t mark = tr->spans().size();
    for (size_t i = 0; i < rows->size(); i += e2e::kBatchEvents) {
      ScopedSpan span(tr, "core.intern");
      saql::InternEventSpan(rows->data() + i,
                            std::min(e2e::kBatchEvents, rows->size() - i));
    }
    intern_ns.push_back(tr->TotalMs("core.intern", mark) * 1e6 /
                        static_cast<double>(rows->size()));
  }
  m->Add("core.intern_ns_per_event", Median(intern_ns), "ns");
}

/// Live query churn on an open session of the workload's configuration:
/// half the input pushed, then five remove/re-add cycles.
void ChurnProbe(Runner* run, Metrics* m) {
  Tracer* tr = run->tracer();
  e2e::Workload& w = run->workload();
  saql::EventBatch* rows = &w.events;
  for (saql::Event& e : *rows) e.syms = saql::EventSymbols{};
  saql::SaqlEngine engine;
  for (const e2e::QuerySpec& q : w.queries) {
    run->Note(engine.AddQuery(q.text, q.name), "AddQuery");
  }
  saql::SessionOptions so;
  so.alert_sink = [](const saql::Alert&) {};
  auto session = engine.OpenSession(std::move(so));
  if (!run->Note(session.status(), "OpenSession")) return;
  saql::SaqlEngine::Session* s = session.value().get();
  for (size_t i = 0; i < rows->size() / 2; i += e2e::kBatchEvents) {
    run->Note(s->Push(rows->data() + i,
                      std::min(e2e::kBatchEvents, rows->size() / 2 - i)),
              "Push");
    run->Note(s->AdvanceWatermark(s->max_event_ts()), "AdvanceWatermark");
  }
  std::vector<std::string> live_names;
  for (const e2e::QuerySpec& q : w.queries) live_names.push_back(q.name);
  size_t mark = tr->spans().size();
  for (size_t k = 0; k < 5; ++k) {
    size_t i = (k * 7) % w.queries.size();
    std::string renamed = w.queries[i].name + "-probe" + std::to_string(k);
    {
      ScopedSpan span(tr, "engine.churn_remove");
      run->Note(s->RemoveQuery(live_names[i]), "RemoveQuery");
    }
    {
      ScopedSpan span(tr, "engine.churn_add");
      run->Note(s->AddQuery(w.queries[i].text, renamed).status(), "AddQuery");
    }
    live_names[i] = renamed;
  }
  run->Note(s->Close(), "Close");
  m->Add("engine.churn_add_ms_p50",
         Median(tr->DurationsUs("engine.churn_add", mark)) / 1e3, "ms");
  m->Add("engine.churn_remove_ms_p50",
         Median(tr->DurationsUs("engine.churn_remove", mark)) / 1e3, "ms");
}

/// Storage probes: the durable write path (DurableLogWriter::Append over
/// the workload's events, group sync) and the replay read path
/// (StreamReplayer::NextBlock + MutableRows over the v2 columnar log the
/// writer leaves on Close).
void StorageProbes(Runner* run, Metrics* m) {
  Tracer* tr = run->tracer();
  saql::EventBatch* rows = &run->workload().events;
  const double n = static_cast<double>(rows->size());

  std::string path = run->dir()->NewPath("probe-wal") + ".saqllog";
  uint64_t lag_max = 0;
  double drain_ms = 0;
  size_t mark = tr->spans().size();
  {
    saql::DurableLogWriter::Options wo;
    wo.sync = e2e::RecordSync();
    wo.backend = e2e::RecordBackend();
    saql::DurableLogWriter writer(path, wo);
    run->Note(writer.status(), "DurableLogWriter");
    for (size_t i = 0; i < rows->size() && writer.status().ok();
         i += e2e::kBatchEvents) {
      {
        ScopedSpan span(tr, "storage.wal_append");
        size_t end = std::min(rows->size(), i + e2e::kBatchEvents);
        for (size_t j = i; j < end; ++j) {
          if (!writer.Append((*rows)[j]).ok()) break;
        }
      }
      lag_max = std::max(lag_max, writer.appended_events() - writer.durable_seq());
    }
    {
      ScopedSpan span(tr, "storage.drain_wait");
      while (writer.durable_seq() < writer.appended_events() &&
             writer.status().ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    drain_ms = tr->TotalMs("storage.drain_wait", mark);
    run->Note(writer.Close(), "DurableLogWriter::Close");
  }
  m->Add("storage.wal_append_ns_per_event",
         tr->TotalMs("storage.wal_append", mark) * 1e6 / n, "ns");
  m->Add("storage.durable_lag_max_events", static_cast<double>(lag_max),
         "count");
  m->Add("storage.drain_wait_ms", drain_ms, "ms");

  std::vector<double> replay_ns;
  for (int rep = 0; rep < 3; ++rep) {
    saql::StreamReplayer replayer(path, saql::StreamReplayer::Filter{});
    if (!run->Note(replayer.status(), "StreamReplayer")) break;
    size_t count = 0;
    size_t rep_mark = tr->spans().size();
    while (true) {
      ScopedSpan span(tr, "storage.replay");
      saql::EventBlock* b = replayer.NextBlock(4096);
      if (b == nullptr || b->empty()) break;
      b->MutableRows();
      count += b->size();
    }
    run->Gate(count == rows->size(), "storage probe replays every event");
    replay_ns.push_back(tr->TotalMs("storage.replay", rep_mark) * 1e6 / n);
  }
  m->Add("storage.replay_ns_per_event", Median(replay_ns), "ns");
  run->Gate(e2e::RemoveRecording(path), "storage probe log removed");
}

void PerLayer(Runner* run, const PassResult& ref, const Args& args,
              Metrics* m) {
  Tracer* tr = run->tracer();
  e2e::Workload& w = run->workload();

  // Set-up spans.
  std::vector<double> add_ms, open_ms;
  for (int rep = 0; rep < 5; ++rep) {
    size_t mark = tr->spans().size();
    // Run the set-up under the runner's tracer: Open records the spans.
    if (run->MeasureSetup() < 0) break;
    add_ms.push_back(tr->TotalMs("engine.add_query", mark));
    open_ms.push_back(tr->TotalMs("engine.open_session", mark));
  }

  // Traced and untraced closed-loop passes of the same configuration,
  // alternating: each traced pass is compared with the untraced pass just
  // before it, so a slow phase of the machine hits both sides of a pair.
  // The last traced pass gives the spans and counts below.
  PassOptions untraced;
  untraced.split_record = true;
  PassOptions traced = untraced;
  traced.traced = true;
  std::vector<double> overhead_pct;
  PassResult p;
  size_t mark = 0;
  for (int rep = 0; rep < 5; ++rep) {
    PassResult u = run->RunPass(untraced);
    CheckPass(run, u, ref, "untraced closed-loop pass");
    mark = tr->spans().size();
    p = run->RunPass(traced);
    CheckPass(run, p, ref, "traced closed-loop pass");
    overhead_pct.push_back((p.wall_s - u.wall_s) / u.wall_s * 100.0);
  }
  std::vector<double> push_us = tr->DurationsUs("engine.push", mark);
  m->Add("engine.add_query_ms", Median(add_ms), "ms");
  m->Add("engine.open_session_ms", Median(open_ms), "ms");
  m->Add("engine.push_busy_s", tr->TotalMs("engine.push", mark) / 1e3, "s");
  m->Add("engine.push_p50_us", Quantile(push_us, 0.50), "us");
  m->Add("engine.push_p99_us", Quantile(push_us, 0.99), "us");
  m->Add("engine.watermark_busy_s", tr->TotalMs("engine.watermark", mark) / 1e3,
         "s");
  m->Add("engine.flush_busy_s", tr->TotalMs("engine.flush", mark) / 1e3, "s");
  m->Add("engine.close_ms", tr->TotalMs("engine.close", mark), "ms");
  m->Add("engine.alerts", static_cast<double>(p.alerts), "count");
  m->Add("engine.groups", static_cast<double>(p.groups), "count");
  m->Add("engine.indexed_groups", static_cast<double>(p.indexed_groups),
         "count");
  m->Add("engine.match_ratio", p.match_ratio, "ratio");
  m->Add("stream.forward_ratio", p.forward_ratio, "ratio");
  m->Add("stream.deliveries_per_event", p.deliveries_per_event, "ratio");
  std::map<std::string, double> self = tr->SelfMsByModule(p.root_span);
  m->Add("self.driver_ms", self["driver"], "ms");
  m->Add("self.engine_ms", self["engine"], "ms");
  m->Add("self.storage_ms", self["storage"], "ms");
  m->Add("trace.overhead_pct", Median(overhead_pct), "%");
  std::printf("traced closed pass self time (ms):");
  for (const auto& [module, ms] : self) std::printf(" %s=%.1f", module.c_str(), ms);
  std::printf("\n");
  int32_t closed_root = p.root_span;

  // Open loop, untraced: the alert-latency tail.
  std::vector<double> latency;
  for (int rep = 0; rep < 3; ++rep) {
    PassOptions o;
    o.open_loop = true;
    PassResult u = run->RunPass(o);
    CheckPass(run, u, ref, "untraced open-loop pass");
    latency.insert(latency.end(), u.latency_ms.begin(), u.latency_ms.end());
  }
  run->Gate(latency.size() >= 1000, "open loop yields >= 1000 alert samples");
  m->Add("e2e.alert_p99_ms", Quantile(latency, 0.99), "ms");
  m->Add("e2e.alert_samples", static_cast<double>(latency.size()), "count");

  // Open loop, traced: the generator's own lateness and backlog.
  PassOptions open;
  open.open_loop = true;
  open.traced = true;
  PassResult op = run->RunPass(open);
  CheckPass(run, op, ref, "traced open-loop pass");
  m->Add("driver.gen_late_p99_ms", Quantile(op.gen_late_ms, 0.99), "ms");
  m->Add("driver.backlog_max_events", static_cast<double>(op.backlog_max),
         "count");

  // The same job, unrecorded, on a direct and on a 2-lane session.
  PassOptions direct;
  direct.record = 0;
  PassResult pd = run->RunPass(direct);
  CheckPass(run, pd, ref, "direct pass");
  PassOptions two = direct;
  two.lanes = 2;
  PassResult p2 = run->RunPass(two);
  CheckPass(run, p2, ref, "2-lane pass");
  m->Add("stream.lane_speedup", Throughput(p2) / Throughput(pd), "x");

  ModuleProbes(run, m);
  ChurnProbe(run, m);
  StorageProbes(run, m);

  std::string spans = args.workdir + "/spans-" + w.name + "-" +
                      std::to_string(args.seed) + ".json";
  run->Gate(tr->WriteJson(spans, closed_root), "span dump written");
  std::printf("spans: %zu written to %s\n", tr->spans().size(), spans.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: saql_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  e2e::ScratchDir dir(args.workdir);
  if (!dir.ok()) {
    std::fprintf(stderr, "cannot create a scratch directory under %s\n",
                 args.workdir.c_str());
    return 2;
  }
  e2e::Workload w;
  int64_t gen0 = NowNs();
  saql::Status st = e2e::MakeWorkload(args.workload, args.seed, 1.0, &w);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot build workload: %s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("workload %s seed %llu: %zu events, %zu queries, "
              "record %d, churn ops %zu, generated in %.2f s, nproc %ld\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.events.size(), w.queries.size(), w.record ? 1 : 0,
              w.churn.size(), static_cast<double>(NowNs() - gen0) / 1e9,
              sysconf(_SC_NPROCESSORS_ONLN));
  const long rss_base_kb = e2e::ProcStatus("VmRSS");

  Tracer tracer(args.trace);
  Runner run(&w, &dir, &tracer);
  // Outside timing: the reference alert multiset, from a warm-up pass of
  // the workload's configuration (it also fills the interner, so every
  // measured pass does the same interning work).
  PassResult ref = run.RunPass(PassOptions{});
  run.Gate(ref.must_alert_ok, "reference detects every attack step");
  run.Gate(ref.record_ok, "reference recording replays whole");
  run.Gate(ref.syms_clean_at_start, "reference pass starts with syms.gen == 0");

  Metrics m;
  if (args.trace) {
    PerLayer(&run, ref, args, &m);
  } else {
    EndToEnd(&run, ref, args.seconds, rss_base_kb, &m);
  }
  m.Print();
  bool correct = run.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()), m.Json().c_str());
  return correct ? 0 : 1;
}
