#ifndef SAQL_BENCH_BENCH_UTIL_H_
#define SAQL_BENCH_BENCH_UTIL_H_

#include <random>
#include <string>

#include "core/event.h"
#include "core/time_util.h"

namespace saql {
namespace bench {

/// Synthetic stream of per-process network writes: `procs` processes
/// round-robin over `ips` destination IPs, one event per `gap` of event
/// time, log-normal amounts. Deterministic for a fixed seed.
inline EventBatch NetWriteStream(size_t n, int procs, int ips,
                                 Duration gap = 100 * kMillisecond,
                                 uint64_t seed = 7) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> amount(9.0, 0.7);
  EventBatch out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i + 1;
    e.ts = static_cast<Timestamp>(i) * gap;
    e.agent_id = "db-server-01";
    int p = static_cast<int>(i) % procs;
    e.subject.exe_name = "proc" + std::to_string(p) + ".exe";
    e.subject.pid = 1000 + p;
    e.op = EventOp::kWrite;
    e.object_type = EntityType::kNetwork;
    e.obj_net.src_ip = "10.10.0.9";
    e.obj_net.dst_ip =
        "10.0.0." + std::to_string(static_cast<int>(i) % ips + 1);
    e.obj_net.dst_port = 443;
    e.amount = static_cast<int64_t>(amount(rng));
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace bench
}  // namespace saql

#endif  // SAQL_BENCH_BENCH_UTIL_H_
