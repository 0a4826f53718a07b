// E12: stream replayer throughput (the demo's record/replay path,
// Fig. 4). Measures full-speed replay rate and filtered replay (host
// selection) — the replayer must outpace the engine so it never becomes
// the bottleneck when reproducing attacks.
//
// A9: replay ablation — the engine-facing replay loop (NextBlock, row
// materialization) over the same corpus stored as a
// columnar v2 log, read buffered and with mmap zero-copy blocks, plus
// the v2 write rate. Refresh BENCH_throughput.json with:
//   ./bench_replayer --benchmark_filter='A9Replay'
//     --benchmark_out=bench_a9.json --benchmark_out_format=json

#include <cstdio>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "storage/columnar_log.h"
#include "storage/replayer.h"

namespace saql {
namespace {

constexpr size_t kLogEvents = 100000;

std::string ColumnarLogPath() {
  return ::std::string("/tmp/saql_bench_replayer_v2.saqllog");
}

const EventBatch& Events() {
  static const EventBatch* events =
      new EventBatch(bench::NetWriteStream(kLogEvents, 50, 20));
  return *events;
}

void BM_ReplayFullSpeed(benchmark::State& state) {
  (void)WriteColumnarEventLog(ColumnarLogPath(), Events());
  for (auto _ : state) {
    StreamReplayer replayer(ColumnarLogPath(), StreamReplayer::Filter{});
    EventBatch batch;
    size_t total = 0;
    while (replayer.NextBatch(1024, &batch)) total += batch.size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogEvents));
}
BENCHMARK(BM_ReplayFullSpeed)->Unit(benchmark::kMillisecond);

void BM_ReplayWithHostFilter(benchmark::State& state) {
  // All bench events carry agent "db-server-01"; filtering for another
  // host exercises the filter-and-skip path on every record.
  (void)WriteColumnarEventLog(ColumnarLogPath(), Events());
  StreamReplayer::Filter filter;
  filter.hosts = {"ws-01"};
  for (auto _ : state) {
    StreamReplayer replayer(ColumnarLogPath(), filter);
    EventBatch batch;
    while (replayer.NextBatch(1024, &batch)) {
    }
    benchmark::DoNotOptimize(replayer.filtered_out());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogEvents));
}
BENCHMARK(BM_ReplayWithHostFilter)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A9: replay-format ablation. Each variant drives the exact loop the
// engine's `Run` drives — pull a block, materialize rows (with empty
// symbol memos: a session interns a slot on its first read, so that cost
// is the session's, not the replay loop's) — so the items/s are
// comparable end-to-end replay rates, not raw decode rates.
// ---------------------------------------------------------------------------

void ReplayLoop(benchmark::State& state, const std::string& path,
                bool use_mmap) {
  for (auto _ : state) {
    StreamReplayer::Filter filter;
    filter.use_mmap = use_mmap;
    StreamReplayer replayer(path, filter);
    if (!replayer.status().ok()) {
      state.SkipWithError(replayer.status().ToString().c_str());
      return;
    }
    uint64_t total = 0;
    while (EventBlock* block = replayer.NextBlock(4096)) {
      Event* rows = block->MutableRows();
      benchmark::DoNotOptimize(rows);
      total += block->size();
    }
    if (total != kLogEvents) {
      state.SkipWithError("short replay");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogEvents));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_A9ReplayColumnarV2(benchmark::State& state) {
  (void)WriteColumnarEventLog(ColumnarLogPath(), Events());
  ReplayLoop(state, ColumnarLogPath(), /*use_mmap=*/false);
}
BENCHMARK(BM_A9ReplayColumnarV2)->Unit(benchmark::kMillisecond);

void BM_A9ReplayColumnarV2Mmap(benchmark::State& state) {
  (void)WriteColumnarEventLog(ColumnarLogPath(), Events());
  ReplayLoop(state, ColumnarLogPath(), /*use_mmap=*/true);
}
BENCHMARK(BM_A9ReplayColumnarV2Mmap)->Unit(benchmark::kMillisecond);

void BM_A9LogWriteColumnarV2(benchmark::State& state) {
  const EventBatch& events = Events();
  for (auto _ : state) {
    Status st = WriteColumnarEventLog(ColumnarLogPath(), events);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogEvents));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_A9LogWriteColumnarV2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
