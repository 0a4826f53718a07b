#include "workloads.h"

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "collect/enterprise_sim.h"

namespace e2e {

namespace {

using saql::Event;
using saql::EventBatch;
using saql::Status;

size_t Scaled(double base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(base * scale)));
}

void SetBounds(Workload* w, const EventBatch& events) {
  if (!events.empty()) {
    w->first_ts = events.front().ts;
    w->last_ts = events.back().ts;
  }
}

Status ReadQueryFile(const std::string& relative, std::string* text) {
  std::ifstream in(std::string(SAQL_QUERY_DIR) + "/" + relative);
  if (!in) return Status::NotFound("query file " + relative);
  std::ostringstream out;
  out << in.rdbuf();
  *text = out.str();
  return Status::Ok();
}

// apt_recorded: the paper's demo. Benign enterprise traffic plus the
// five-step APT trace, the 8-query APT corpus, recorded through the WAL.
// The corpus raises about 8 alerts per pass, too few for a latency
// percentile, so an analyst's browser-egress watch (a rule query that
// reports every network write of the browser) rides along and supplies
// alert-latency samples spread evenly over the stream.
Status MakeApt(uint64_t seed, double scale, Workload* w) {
  static const char* const kCorpus[][2] = {
      {"r1-initial-compromise", "apt/r1_initial_compromise.saql"},
      {"r2-malware-infection", "apt/r2_malware_infection.saql"},
      {"r3-privilege-escalation", "apt/r3_privilege_escalation.saql"},
      {"r4-penetration", "apt/r4_penetration.saql"},
      {"r5-exfiltration", "query1_rule.saql"},
      {"a6-invariant-excel", "apt/a6_invariant_excel.saql"},
      {"a7-timeseries-network", "apt/a7_timeseries_network.saql"},
      {"a8-outlier-dbscan", "apt/a8_outlier_dbscan.saql"},
  };
  for (const auto& [name, file] : kCorpus) {
    QuerySpec q{name, ""};
    Status st = ReadQueryFile(file, &q.text);
    if (!st.ok()) return st;
    w->queries.push_back(std::move(q));
  }
  w->queries.push_back({"browser-egress",
                        "proc p[\"%chrome.exe\"] write ip i as evt\n"
                        "return p, i, evt.amount\n"});
  // Every pass must detect each of the five attack steps.
  w->must_alert = {"r1-initial-compromise", "r2-malware-infection",
                   "r3-privilege-escalation", "r4-penetration",
                   "r5-exfiltration"};

  saql::EnterpriseSimulator::Options opts;
  opts.num_workstations = static_cast<int>(Scaled(12, scale, 2));
  // A light per-host rate keeps a pass short (about 230k events), so a
  // run measures many passes and their median does not hang on a few.
  opts.events_per_host_per_second = 10;
  // The attack starts at minute 12 (after a6's ten training windows) and
  // its last step at minute 20; 24 minutes close every step's windows.
  opts.duration = 24 * saql::kMinute;
  opts.seed = seed;
  opts.include_attack = true;
  saql::EnterpriseSimulator sim(opts);
  w->events = sim.Generate();
  SetBounds(w, w->events);
  w->record = true;
  w->open_rate_eps = 140000;
  return Status::Ok();
}

// soc_fleet_churn: a multi-tenant SOC. 256 tenant queries in the A7
// shapes (exact-equality tenant constraints, 4 structural shapes); every
// 8th tenant is a stateful per-tenant window query so the pass yields
// enough alerts for latency percentiles. A fixed schedule retracts and
// re-attaches a few tenants at fixed input positions.
Status MakeSoc(uint64_t seed, double scale, Workload* w) {
  static const char* const kShapes[][2] = {
      {"write", "ip i"},
      {"read", "file f"},
      {"write", "file f"},
      {"start", "proc q"},
  };
  constexpr int kTenantQueries = 256;
  for (int i = 0; i < kTenantQueries; ++i) {
    const auto& shape = kShapes[i % 4];
    std::string exe = "tenant" + std::to_string(i / 4) + ".exe";
    char name[16];
    std::snprintf(name, sizeof(name), "t%03d", i);
    std::string text;
    if (i % 8 == 5) {
      text = "proc p[exe_name = \"" + exe + "\"] read file f as e\n"
             "#time(10 s)\n"
             "state ss {\n  total := sum(e.amount)\n} group by p\n"
             "alert ss.total > 26000\n"
             "return p, ss.total\n";
    } else {
      std::string subj = "exe_name = \"" + exe + "\"";
      if (i % 4 == 1) subj += ", pid > 1000";
      text = "proc p[" + subj + "] " + shape[0] + " " + shape[1] +
             " as e return distinct p";
    }
    w->queries.push_back({name, std::move(text)});
  }

  const size_t n = Scaled(400000, scale, 4000);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> tenant(0, 159);
  std::uniform_int_distribution<int> pick4(0, 3);
  std::uniform_int_distribution<int> pid(995, 1004);
  std::uniform_int_distribution<int> amount(256, 4095);
  static const std::pair<saql::EventOp, saql::EntityType> kEventShapes[4] = {
      {saql::EventOp::kWrite, saql::EntityType::kNetwork},
      {saql::EventOp::kRead, saql::EntityType::kFile},
      {saql::EventOp::kWrite, saql::EntityType::kFile},
      {saql::EventOp::kStart, saql::EntityType::kProcess},
  };
  const saql::Timestamp start = 1582761600LL * saql::kSecond;
  w->events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i + 1;
    e.ts = start + static_cast<saql::Timestamp>(i) * saql::kMillisecond;
    e.agent_id = "edge-" + std::to_string(i % 9);
    e.subject.exe_name = "tenant" + std::to_string(tenant(rng)) + ".exe";
    e.subject.pid = pid(rng);
    e.subject.user = (i % 2 == 0) ? "svc" : "alice";
    const auto& [op, type] = kEventShapes[pick4(rng)];
    e.op = op;
    e.object_type = type;
    switch (type) {
      case saql::EntityType::kProcess:
        e.obj_proc.exe_name = "worker.exe";
        e.obj_proc.pid = 4000 + static_cast<int64_t>(i % 50);
        break;
      case saql::EntityType::kFile:
        e.obj_file.path = "/srv/data/file" + std::to_string(i % 200);
        break;
      case saql::EntityType::kNetwork:
        e.obj_net.src_ip = "10.1.9.9";
        e.obj_net.dst_ip = "10.1.0." + std::to_string(i % 40 + 1);
        e.obj_net.dst_port = 443;
        break;
    }
    e.amount = amount(rng);
    w->events.push_back(std::move(e));
  }
  SetBounds(w, w->events);

  // Three tenants leave and come back (under a new name: session query
  // names are unique for the session's lifetime): two stateful, one
  // stateless. Few operations, so alerts stalled behind a churn
  // operation stay far below 1% of a pass's alerts.
  auto text_of = [&](const char* name) {
    for (const QuerySpec& q : w->queries) {
      if (q.name == name) return q.text;
    }
    return std::string();
  };
  const char* const kChurned[] = {"t005", "t013", "t002"};
  for (size_t k = 0; k <= 3; ++k) {
    ChurnOp op;
    op.position = n * (k + 1) / 5;
    if (k < 3) op.remove = kChurned[k];
    if (k > 0) {
      op.add = {std::string(kChurned[k - 1]) + "-r",
                text_of(kChurned[k - 1])};
    }
    w->churn.push_back(std::move(op));
  }
  w->open_rate_eps = 650000;
  return Status::Ok();
}

}  // namespace

saql::SyncPolicy RecordSync() { return saql::SyncPolicy::GroupCommit(); }

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"apt_recorded",
                                                  "soc_fleet_churn"};
  return kNames;
}

Status MakeWorkload(const std::string& name, uint64_t seed, double scale,
                    Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "apt_recorded") return MakeApt(seed, scale, out);
  if (name == "soc_fleet_churn") return MakeSoc(seed, scale, out);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

ScratchDir::ScratchDir(const std::string& base) {
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  std::string tmpl = base + "/run-XXXXXX";
  if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::NewPath(const std::string& stem) {
  return path_ + "/" + stem + "-" + std::to_string(next_++);
}

}  // namespace e2e
