// Ablations for the design choices DESIGN.md calls out:
//   A1 LIKE fast paths — suffix/prefix/contains patterns take O(1)-ish
//      compares instead of the general backtracking matcher.
//   A2 Executor batch size — watermark (and window-close sweep) frequency
//      is per batch; tiny batches pay for frequent close scans.
//   A3 Reorder buffer — cost of tolerating out-of-order agent feeds.
//   A4 1-D DBSCAN fast path — covered in bench_dbscan (1D vs 2D).
//   A5 Op/entity dispatch routing — events reach only groups whose master
//      pattern can match them vs broadcast to every group.
//   A7 Member-side matching — the shared per-group ConstraintIndex vs
//      brute-force member loops at 8/32/128/512 queries over a
//      multi-tenant few-shapes workload (exact-equality tenant
//      constraints + shared numeric residuals). This is the regime the A5
//      sweep exposed: with routing on, residual member matching dominates
//      as queries grow.
//   A8 Dynamic query churn — the session API's mid-stream
//      AddQuery/RemoveQuery (group patching + ConstraintIndex rebuild +
//      dispatch re-registration) at K = 0/4/16/64 queries churned per
//      stream chunk over a static 64-tenant base set. K=0 is the
//      no-churn session baseline; the sweep prices what a live
//      multi-tenant deployment pays for analysts joining and leaving
//      mid-stream.
//   A12 Concurrent sessions — aggregate throughput when 1/2/4/8 isolated
//      tenant sessions of one engine stream from independent threads
//      (each session owns its symbol table and everything else), plus
//      the rotation hiccup: the same drive with a 1-byte per-session
//      table bound, so each push rotates the session's table and pays the
//      re-bind/re-index.
//   A14 Fleet admission — microseconds per SaqlEngine::AddQuery (parse,
//      compile, lint, fleet check) while registering the A7 tenant fleet
//      of 64/256/1024 queries: the indexed fleet check keeps it flat as
//      the fleet grows, where an all-pairs check grows with it.
//   Baseline file: run with
//     --benchmark_filter='Routing|MemberIndex|DynamicChurn|ConcurrentSessions|FleetAdmission'
//     --benchmark_out=BENCH_throughput.json --benchmark_out_format=json
//   to refresh the checked-in throughput baseline.

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "collect/enterprise_sim.h"
#include "core/like_matcher.h"
#include "engine/engine.h"
#include "stream/reorder_buffer.h"

namespace saql {
namespace {

// ---------------------------------------------------------------------------
// A1: LIKE fast paths.
// ---------------------------------------------------------------------------

std::vector<std::string> Paths(size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back("C:\\Windows\\System32\\dir" + std::to_string(i % 50) +
                  "\\app" + std::to_string(i % 1000) + ".exe");
  }
  return out;
}

void BM_LikeSuffixFastPath(benchmark::State& state) {
  LikeMatcher m("%cmd.exe");  // suffix fast path
  auto paths = Paths(10000);
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& p : paths) hits += m.Matches(p);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_LikeSuffixFastPath)->Unit(benchmark::kMicrosecond);

void BM_LikeGeneralBacktracking(benchmark::State& state) {
  LikeMatcher m("%c%m%d%.exe");  // forces the general matcher
  auto paths = Paths(10000);
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& p : paths) hits += m.Matches(p);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_LikeGeneralBacktracking)->Unit(benchmark::kMicrosecond);

void BM_LikeExact(benchmark::State& state) {
  LikeMatcher m("c:\\windows\\system32\\dir1\\app1.exe");
  auto paths = Paths(10000);
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& p : paths) hits += m.Matches(p);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_LikeExact)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// A2: executor batch size.
// ---------------------------------------------------------------------------

void BM_BatchSizeSweep(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  static const EventBatch* events =
      new EventBatch(bench::NetWriteStream(100000, 50, 20));
  const char* query =
      "proc p write ip i as e #time(10 s) "
      "state ss { amt := sum(e.amount) } group by p "
      "alert ss.amt > 100000000 return p, ss.amt";
  for (auto _ : state) {
    SaqlEngine::Options opts;
    opts.batch_size = batch;
    SaqlEngine engine(opts);
    Status st = engine.AddQuery(query, "q");
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    engine.SetAlertSink([](const Alert&) {});
    VectorEventSource source(*events);
    st = engine.Run(&source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_BatchSizeSweep)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A3: reorder buffer overhead.
// ---------------------------------------------------------------------------

void BM_ReorderBufferPassThrough(benchmark::State& state) {
  // Ordered input: measures the pure bookkeeping cost of the buffer.
  static const EventBatch* events =
      new EventBatch(bench::NetWriteStream(100000, 50, 20));
  for (auto _ : state) {
    ReorderBuffer buf(kSecond);
    EventBatch out;
    out.reserve(1024);
    size_t total = 0;
    for (const Event& e : *events) {
      out.clear();
      buf.Push(e, &out);
      total += out.size();
    }
    out.clear();
    buf.Flush(&out);
    total += out.size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_ReorderBufferPassThrough)->Unit(benchmark::kMillisecond);

void BM_ReorderBufferShuffledInput(benchmark::State& state) {
  // Bounded disorder: events jittered within +/-500ms.
  static const EventBatch* events = [] {
    EventBatch e = bench::NetWriteStream(100000, 50, 20);
    std::mt19937_64 rng(3);
    std::uniform_int_distribution<Duration> jitter(-500 * kMillisecond,
                                                   500 * kMillisecond);
    for (Event& ev : e) ev.ts += jitter(rng);
    return new EventBatch(std::move(e));
  }();
  for (auto _ : state) {
    ReorderBuffer buf(2 * kSecond);
    EventBatch out;
    size_t total = 0;
    for (const Event& e : *events) {
      out.clear();
      buf.Push(e, &out);
      total += out.size();
    }
    out.clear();
    buf.Flush(&out);
    total += out.size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_ReorderBufferShuffledInput)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A5: op/entity dispatch routing vs broadcast delivery.
// ---------------------------------------------------------------------------

/// A realistic concurrent-SOC workload: queries over 8 distinct structural
/// shapes, two per shape (grouping merges them into 8 scheduler groups).
std::vector<std::string> ConcurrentWorkloadQueries(int n) {
  // (subject-suffix, op spelling, object) per structural shape.
  static const char* const kShapes[][2] = {
      {"write", "ip i"},    {"connect", "ip i"},  {"recv", "ip i"},
      {"read", "file f"},   {"write", "file f"},  {"delete", "file f"},
      {"start", "proc q"},  {"kill", "proc q"},
  };
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& shape = kShapes[i % 8];
    out.push_back("proc p[\"%app" + std::to_string(i % 50) +
                  ".exe\"] " + shape[0] + " " + shape[1] +
                  " as e return distinct p");
  }
  return out;
}

/// 30% of events hit one of the workload's 8 shapes; 70% are monitoring
/// noise (chmod/rename/send/execute) no registered query can match — the
/// traffic a dispatch index discards without touching any group.
const EventBatch& ConcurrentWorkloadStream() {
  static const EventBatch* stream = [] {
    constexpr size_t kN = 200000;
    std::mt19937_64 rng(11);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> pick8(0, 7);
    std::uniform_int_distribution<int> pick4(0, 3);
    std::uniform_int_distribution<int> proc(0, 49);
    auto* out = new EventBatch();
    out->reserve(kN);
    for (size_t i = 0; i < kN; ++i) {
      Event e;
      e.id = i + 1;
      e.ts = static_cast<Timestamp>(i) * 10 * kMillisecond;
      e.agent_id = "db-server-01";
      e.subject.pid = 1000 + proc(rng);
      e.subject.exe_name = "app" + std::to_string(proc(rng)) + ".exe";
      if (pct(rng) < 30) {
        static const std::pair<EventOp, EntityType> kShapes[8] = {
            {EventOp::kWrite, EntityType::kNetwork},
            {EventOp::kConnect, EntityType::kNetwork},
            {EventOp::kRecv, EntityType::kNetwork},
            {EventOp::kRead, EntityType::kFile},
            {EventOp::kWrite, EntityType::kFile},
            {EventOp::kDelete, EntityType::kFile},
            {EventOp::kStart, EntityType::kProcess},
            {EventOp::kKill, EntityType::kProcess},
        };
        const auto& [op, type] = kShapes[pick8(rng)];
        e.op = op;
        e.object_type = type;
      } else {
        static const std::pair<EventOp, EntityType> kNoise[4] = {
            {EventOp::kChmod, EntityType::kFile},
            {EventOp::kRename, EntityType::kFile},
            {EventOp::kSend, EntityType::kNetwork},
            {EventOp::kExecute, EntityType::kFile},
        };
        const auto& [op, type] = kNoise[pick4(rng)];
        e.op = op;
        e.object_type = type;
      }
      switch (e.object_type) {
        case EntityType::kProcess:
          e.obj_proc.exe_name = "child" + std::to_string(proc(rng)) + ".exe";
          e.obj_proc.pid = 5000 + proc(rng);
          break;
        case EntityType::kFile:
          e.obj_file.path = "/data/file" + std::to_string(i % 200);
          break;
        case EntityType::kNetwork:
          e.obj_net.src_ip = "10.0.0.1";
          e.obj_net.dst_ip = "10.0.0." + std::to_string(i % 50 + 2);
          e.obj_net.dst_port = 443;
          break;
      }
      e.amount = 1000 + static_cast<int64_t>(i % 1000);
      out->push_back(std::move(e));
    }
    return out;
  }();
  return *stream;
}

void RunRoutingAblation(benchmark::State& state, bool routing) {
  int num_queries = static_cast<int>(state.range(0));
  // One shared source, rewound per iteration: measures the dispatch loop,
  // not stream materialization (and events intern exactly once).
  static VectorEventSource* source =
      new VectorEventSource(ConcurrentWorkloadStream());
  const size_t stream_size = source->size();
  std::vector<std::string> queries = ConcurrentWorkloadQueries(num_queries);
  uint64_t deliveries = 0;
  uint64_t skips = 0;
  for (auto _ : state) {
    SaqlEngine::Options opts;
    opts.enable_routing = routing;
    SaqlEngine engine(opts);
    for (int i = 0; i < num_queries; ++i) {
      Status st = engine.AddQuery(queries[static_cast<size_t>(i)],
                                  "q" + std::to_string(i));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    engine.SetAlertSink([](const Alert&) {});
    source->Reset();
    Status st = engine.Run(source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    deliveries += engine.executor_stats().deliveries;
    skips += engine.executor_stats().routed_skips;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream_size));
  double per_event =
      static_cast<double>(state.iterations()) * stream_size;
  state.counters["deliveries_per_event"] =
      static_cast<double>(deliveries) / per_event;
  state.counters["routed_skips_per_event"] =
      static_cast<double>(skips) / per_event;
  state.counters["queries"] = static_cast<double>(num_queries);
}

void BM_RoutingEnabled(benchmark::State& state) {
  RunRoutingAblation(state, /*routing=*/true);
}
BENCHMARK(BM_RoutingEnabled)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_RoutingDisabledBroadcast(benchmark::State& state) {
  RunRoutingAblation(state, /*routing=*/false);
}
BENCHMARK(BM_RoutingDisabledBroadcast)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A7: shared member-matching constraint index vs brute-force member loops.
// ---------------------------------------------------------------------------

/// Multi-tenant few-shapes workload: `n` stateless queries spread over 4
/// structural shapes (so grouping yields 4 big groups of n/4 members).
/// Each tenant watches its own executable with exact interned equality —
/// the index resolves all of a group's tenants with one symbol probe per
/// event — and every 4th tenant adds a shared numeric residual that the
/// index evaluates once per event instead of once per member.
std::vector<std::string> MemberIndexWorkloadQueries(int n) {
  static const char* const kShapes[][2] = {
      {"write", "ip i"},
      {"read", "file f"},
      {"write", "file f"},
      {"start", "proc q"},
  };
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& shape = kShapes[i % 4];
    std::string subj =
        "exe_name = \"tenant" + std::to_string(i / 4) + ".exe\"";
    if (i % 4 == 1) subj += ", pid > 1000";
    out.push_back("proc p[" + subj + "] " + shape[0] + " " + shape[1] +
                  " as e return distinct p");
  }
  return out;
}

/// Every event hits one of the workload's 4 shapes (the dispatch index
/// forwards nearly everything — member-side matching is the bottleneck
/// under measurement). Subjects cycle over 160 tenant executables, so at
/// 512 queries most events match exactly one member per group.
const EventBatch& MemberIndexWorkloadStream() {
  static const EventBatch* stream = [] {
    constexpr size_t kN = 200000;
    std::mt19937_64 rng(23);
    std::uniform_int_distribution<int> tenant(0, 159);
    std::uniform_int_distribution<int> pick4(0, 3);
    std::uniform_int_distribution<int> pid(900, 1299);
    static const std::pair<EventOp, EntityType> kShapes[4] = {
        {EventOp::kWrite, EntityType::kNetwork},
        {EventOp::kRead, EntityType::kFile},
        {EventOp::kWrite, EntityType::kFile},
        {EventOp::kStart, EntityType::kProcess},
    };
    auto* out = new EventBatch();
    out->reserve(kN);
    for (size_t i = 0; i < kN; ++i) {
      Event e;
      e.id = i + 1;
      e.ts = static_cast<Timestamp>(i) * 10 * kMillisecond;
      e.agent_id = "edge-" + std::to_string(i % 9);
      e.subject.exe_name =
          "tenant" + std::to_string(tenant(rng)) + ".exe";
      e.subject.pid = pid(rng);
      e.subject.user = (i % 2 == 0) ? "svc" : "alice";
      const auto& [op, type] = kShapes[pick4(rng)];
      e.op = op;
      e.object_type = type;
      switch (type) {
        case EntityType::kProcess:
          e.obj_proc.exe_name = "worker.exe";
          e.obj_proc.pid = 4000 + static_cast<int64_t>(i % 50);
          break;
        case EntityType::kFile:
          e.obj_file.path = "/srv/data/file" + std::to_string(i % 200);
          break;
        case EntityType::kNetwork:
          e.obj_net.src_ip = "10.1.9.9";
          e.obj_net.dst_ip = "10.1.0." + std::to_string(i % 40 + 1);
          e.obj_net.dst_port = 443;
          break;
      }
      e.amount = 512 + static_cast<int64_t>(i % 2048);
      out->push_back(std::move(e));
    }
    return out;
  }();
  return *stream;
}

void RunMemberIndexAblation(benchmark::State& state, bool member_index) {
  int num_queries = static_cast<int>(state.range(0));
  static VectorEventSource* source =
      new VectorEventSource(MemberIndexWorkloadStream());
  const size_t stream_size = source->size();
  std::vector<std::string> queries = MemberIndexWorkloadQueries(num_queries);
  size_t indexed_groups = 0;
  for (auto _ : state) {
    SaqlEngine::Options opts;
    opts.enable_member_index = member_index;
    SaqlEngine engine(opts);
    for (int i = 0; i < num_queries; ++i) {
      Status st = engine.AddQuery(queries[static_cast<size_t>(i)],
                                  "t" + std::to_string(i));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    engine.SetAlertSink([](const Alert&) {});
    source->Reset();
    Status st = engine.Run(source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    indexed_groups = engine.num_indexed_groups();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream_size));
  state.counters["queries"] = static_cast<double>(num_queries);
  state.counters["indexed_groups"] = static_cast<double>(indexed_groups);
}

void BM_MemberIndexEnabled(benchmark::State& state) {
  RunMemberIndexAblation(state, /*member_index=*/true);
}
BENCHMARK(BM_MemberIndexEnabled)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_MemberIndexDisabledBrute(benchmark::State& state) {
  RunMemberIndexAblation(state, /*member_index=*/false);
}
BENCHMARK(BM_MemberIndexDisabledBrute)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A8: dynamic query churn through the session API.
// ---------------------------------------------------------------------------

/// A live session over the multi-tenant workload: 64 static tenant
/// queries, the stream pushed in 8 chunks, and at each chunk boundary K
/// fresh tenant queries attach while the previous boundary's K retract —
/// the add path rebuilds the affected group's ConstraintIndex over the
/// widened member list and the remove path tears membership back down, so
/// the sweep isolates the cost of mid-stream query churn against the K=0
/// no-churn session baseline.
void BM_DynamicChurn(benchmark::State& state) {
  const int churn = static_cast<int>(state.range(0));
  constexpr int kBaseQueries = 64;
  constexpr size_t kChunks = 8;
  static EventBatch* stream = new EventBatch(MemberIndexWorkloadStream());
  std::vector<std::string> base = MemberIndexWorkloadQueries(kBaseQueries);
  // Churned query texts, generated outside the timed region: only the
  // parse+compile+attach (and teardown) cost belongs to the measurement.
  std::vector<std::string> fresh;
  {
    std::vector<std::string> all =
        MemberIndexWorkloadQueries(kBaseQueries + churn);
    fresh.assign(all.begin() + kBaseQueries, all.end());
  }
  const size_t chunk = stream->size() / kChunks;
  uint64_t adds = 0, removes = 0;
  for (auto _ : state) {
    SaqlEngine engine;
    engine.SetAlertSink([](const Alert&) {});
    for (int i = 0; i < kBaseQueries; ++i) {
      Status st = engine.AddQuery(base[static_cast<size_t>(i)],
                                  "t" + std::to_string(i));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    auto session = engine.OpenSession();
    if (!session.ok()) {
      state.SkipWithError(session.status().ToString().c_str());
      return;
    }
    std::vector<std::string> last_added;
    for (size_t c = 0; c < kChunks; ++c) {
      size_t begin = c * chunk;
      size_t n = c + 1 == kChunks ? stream->size() - begin : chunk;
      Status st = (*session)->Push(stream->data() + begin, n);
      if (st.ok()) {
        st = (*session)->AdvanceWatermark((*session)->max_event_ts());
      }
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      if (churn == 0 || c + 1 == kChunks) continue;
      for (const std::string& name : last_added) {
        st = (*session)->RemoveQuery(name);
        if (!st.ok()) {
          state.SkipWithError(st.ToString().c_str());
          return;
        }
        ++removes;
      }
      last_added.clear();
      // Fresh tenants in the workload's shapes; names are unique for the
      // session's lifetime, so they carry the chunk number.
      for (int j = 0; j < churn; ++j) {
        std::string name =
            "c" + std::to_string(c) + "_" + std::to_string(j);
        auto h = (*session)->AddQuery(fresh[static_cast<size_t>(j)], name);
        if (!h.ok()) {
          state.SkipWithError(h.status().ToString().c_str());
          return;
        }
        last_added.push_back(name);
        ++adds;
      }
    }
    Status st = (*session)->Close();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream->size()));
  state.counters["churn_per_boundary"] = static_cast<double>(churn);
  state.counters["adds"] = static_cast<double>(adds);
  state.counters["removes"] = static_cast<double>(removes);
  state.counters["base_queries"] = static_cast<double>(kBaseQueries);
}
BENCHMARK(BM_DynamicChurn)
    ->Arg(0)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A12: concurrent multi-tenant sessions.
// ---------------------------------------------------------------------------

/// K sessions of one engine, each driven from its own thread over its own
/// copy of the full multi-tenant stream (16 tenant queries). A session's
/// Push fills the symbol memos of the buffer it is handed, so threads must
/// not share one: each copy's memos are reset, untimed, before every
/// iteration, and every session pays its own interning into its own
/// table. Items processed = K * stream size per iteration, so events/s is
/// the *aggregate* across tenants. `rotate_bytes != 0` sets the
/// per-session table bound (1 byte = rotate at every push that follows
/// one that interned anything): the session clears its table, re-binds
/// its constraint symbols and rebuilds its probe groups — the worst-case
/// rotation hiccup. `rotations` sums the sessions' own rotation counts
/// (`Session::interner_stats`).
void RunConcurrentSessions(benchmark::State& state, size_t rotate_bytes) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  static constexpr size_t kChunk = 4096;
  static EventBatch* stream = new EventBatch(MemberIndexWorkloadStream());
  std::vector<std::string> queries = MemberIndexWorkloadQueries(16);
  std::vector<EventBatch> copies(sessions, *stream);
  uint64_t rotations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (EventBatch& copy : copies) {
      for (Event& e : copy) e.syms = EventSymbols{};
    }
    state.ResumeTiming();
    SaqlEngine::Options opts;
    opts.interner_rotate_bytes = rotate_bytes;
    SaqlEngine engine(opts);
    engine.SetAlertSink([](const Alert&) {});
    for (size_t i = 0; i < queries.size(); ++i) {
      Status st = engine.AddQuery(queries[i], "t" + std::to_string(i));
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    std::atomic<bool> failed{false};
    std::atomic<uint64_t> iteration_rotations{0};
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, events = &copies[s]] {
        auto session = engine.OpenSession();
        if (!session.ok()) {
          failed = true;
          return;
        }
        for (size_t pos = 0; pos < events->size(); pos += kChunk) {
          size_t n = std::min(kChunk, events->size() - pos);
          Status st = (*session)->Push(events->data() + pos, n);
          if (st.ok()) {
            st = (*session)->AdvanceWatermark((*session)->max_event_ts());
          }
          if (!st.ok()) {
            failed = true;
            break;
          }
        }
        iteration_rotations += (*session)->interner_stats().rotations;
        if (!(*session)->Close().ok()) failed = true;
      });
    }
    for (std::thread& t : threads) t.join();
    if (failed.load()) {
      state.SkipWithError("session drive failed");
      return;
    }
    rotations += iteration_rotations.load();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sessions) *
                          static_cast<int64_t>(stream->size()));
  state.counters["sessions"] = static_cast<double>(sessions);
  state.counters["rotations"] = static_cast<double>(rotations);
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_ConcurrentSessions(benchmark::State& state) {
  RunConcurrentSessions(state, /*rotate_bytes=*/0);
}
BENCHMARK(BM_ConcurrentSessions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ConcurrentSessionsRotating(benchmark::State& state) {
  RunConcurrentSessions(state, /*rotate_bytes=*/1);
}
BENCHMARK(BM_ConcurrentSessionsRotating)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// A14: fleet admission.
// ---------------------------------------------------------------------------

/// Registers the A7 tenant fleet of N queries into a fresh engine per
/// iteration and reports `us_per_add`: the mean wall time of one
/// SaqlEngine::AddQuery over the whole registration, so the late adds into
/// a large fleet weigh as much as the early ones.
void BM_FleetAdmission(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> queries = MemberIndexWorkloadQueries(n);
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) names.push_back("t" + std::to_string(i));
  double add_us = 0;
  for (auto _ : state) {
    SaqlEngine engine;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      Status st = engine.AddQuery(queries[static_cast<size_t>(i)],
                                  names[static_cast<size_t>(i)]);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    add_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  }
  const double adds = static_cast<double>(state.iterations()) * n;
  state.SetItemsProcessed(static_cast<int64_t>(adds));
  state.counters["queries"] = static_cast<double>(n);
  state.counters["us_per_add"] = add_us / adds;
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_FleetAdmission)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
