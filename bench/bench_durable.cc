// A11: durable-ingestion ablation. Acked events/s through the
// DurableLogWriter pipeline under each sync policy — `none` (WAL never
// synced), `group` (batched commit barrier, the default), `always`
// (fsync per append call) — appending one event per call and 256 events
// per call (a recording session's Push), plus recovery time over a
// 100k-event log, both as a pure WAL-tail replay and as the mixed
// segments-plus-tail shape a real crash leaves. Refresh
// BENCH_throughput.json with:
//   ./bench_durable --benchmark_filter='A11'
//     --benchmark_out=bench_a11.json --benchmark_out_format=json

#include <algorithm>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "storage/columnar_log.h"
#include "storage/durable_log.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace saql {
namespace {

constexpr size_t kEvents = 100000;

std::string LogPath() {
  return std::string("/tmp/saql_bench_durable.saqllog");
}

const EventBatch& Events() {
  static const EventBatch* events =
      new EventBatch(bench::NetWriteStream(kEvents, 50, 20));
  return *events;
}

// -------------------------------------------------------------------------
// Ingestion: full pipeline (WAL + drainer + columnar segments), clean
// close. items/s = acked events per second under the policy's ack rule,
// with `batch` events per Append call.
// -------------------------------------------------------------------------

void IngestLoop(benchmark::State& state, const char* policy, size_t batch) {
  const EventBatch& events = Events();
  for (auto _ : state) {
    DurableLogWriter::Options opts;
    opts.sync = ParseSyncPolicy(policy).value();
    DurableLogWriter w(LogPath(), opts);
    Status st = w.status();
    for (size_t off = 0; st.ok() && off < events.size(); off += batch) {
      st = w.Append(events.data() + off, std::min(batch, events.size() - off));
    }
    if (st.ok()) st = w.Close();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEvents));
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_A11IngestSyncNone(benchmark::State& state) {
  IngestLoop(state, "none", 1);
}
BENCHMARK(BM_A11IngestSyncNone)->Unit(benchmark::kMillisecond);

void BM_A11IngestSyncGroup(benchmark::State& state) {
  IngestLoop(state, "group", 1);
}
BENCHMARK(BM_A11IngestSyncGroup)->Unit(benchmark::kMillisecond);

void BM_A11IngestSyncAlways(benchmark::State& state) {
  IngestLoop(state, "always", 1);
}
BENCHMARK(BM_A11IngestSyncAlways)->Unit(benchmark::kMillisecond);

void BM_A11IngestBatch256SyncNone(benchmark::State& state) {
  IngestLoop(state, "none", 256);
}
BENCHMARK(BM_A11IngestBatch256SyncNone)->Unit(benchmark::kMillisecond);

void BM_A11IngestBatch256SyncGroup(benchmark::State& state) {
  IngestLoop(state, "group", 256);
}
BENCHMARK(BM_A11IngestBatch256SyncGroup)->Unit(benchmark::kMillisecond);

void BM_A11IngestBatch256SyncAlways(benchmark::State& state) {
  IngestLoop(state, "always", 256);
}
BENCHMARK(BM_A11IngestBatch256SyncAlways)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------------
// Recovery: RecoverDurableLog over a 100k-event crashed log. Setup
// builds the on-disk state once; the measured loop is recovery only.
// -------------------------------------------------------------------------

/// Writes `events[from..)` as a WAL of 256-event records (a recording
/// session's Push shape), seqs from `from + 1`.
bool WriteWal(const std::string& path, const EventBatch& events,
              size_t from) {
  WalWriter wal(path, /*first_seq=*/from + 1);
  EventBlock block;
  WalRecord record;
  for (size_t i = from; i < events.size(); i += 256) {
    block.Clear();
    block.AppendRows(events.data() + i,
                     std::min<size_t>(256, events.size() - i));
    EncodeWalRecord(i + 1, block, &record);
    if (!wal.Append(record).ok()) return false;
  }
  return wal.Close().ok();
}

/// Worst case: the crash predates every segment fsync — a header-only
/// columnar file and the whole stream in the WAL tail.
void BM_A11RecoverWalTail(benchmark::State& state) {
  const EventBatch& events = Events();
  std::string path = "/tmp/saql_bench_recover_tail.saqllog";
  {
    ColumnarLogWriter seg(path);  // header only, no segments
    if (!seg.Close().ok()) {
      state.SkipWithError("columnar setup failed");
      return;
    }
    if (!WriteWal(path + ".wal.0", events, 0)) {
      state.SkipWithError("wal setup failed");
      return;
    }
  }
  for (auto _ : state) {
    auto rec = RecoverDurableLog(path);
    if (!rec.ok() || rec->events.size() != kEvents) {
      state.SkipWithError("recovery failed");
      return;
    }
    benchmark::DoNotOptimize(rec->events.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEvents));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_A11RecoverWalTail)->Unit(benchmark::kMillisecond);

/// The typical crash shape: half the stream already fsynced into
/// columnar segments, the rest replayed from the WAL tail.
void BM_A11RecoverSegmentsPlusWalTail(benchmark::State& state) {
  const EventBatch& events = Events();
  const size_t half = events.size() / 2;
  std::string path = "/tmp/saql_bench_recover_mixed.saqllog";
  {
    ColumnarLogWriter seg(path);
    for (size_t i = 0; i < half; ++i) {
      if (!seg.Append(events[i]).ok()) {
        state.SkipWithError("columnar setup failed");
        return;
      }
    }
    if (!seg.Flush().ok() || !seg.Close().ok()) {
      state.SkipWithError("columnar close failed");
      return;
    }
    if (!WriteWal(path + ".wal.0", events, half)) {
      state.SkipWithError("wal setup failed");
      return;
    }
  }
  for (auto _ : state) {
    auto rec = RecoverDurableLog(path);
    if (!rec.ok() || rec->events.size() != kEvents) {
      state.SkipWithError("recovery failed");
      return;
    }
    benchmark::DoNotOptimize(rec->events.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEvents));
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_A11RecoverSegmentsPlusWalTail)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
