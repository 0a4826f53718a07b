// E6: engine throughput (events/second) per anomaly model type over a
// uniform synthetic stream, against two baselines: the bare streaming
// substrate (no query) and a structural-filter-only query. This is the
// per-model throughput figure of the full SAQL paper's evaluation; the
// expected shape is substrate >> rule > time-series > outlier, with all
// models sustaining well beyond the paper's reported input rates
// (~110K events/s collected from 150 hosts).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"

namespace saql {
namespace {

constexpr size_t kStreamSize = 200000;

const EventBatch& Stream() {
  static const EventBatch* stream =
      new EventBatch(bench::NetWriteStream(kStreamSize, 50, 20));
  return *stream;
}

/// No-query baseline: raw substrate dispatch cost.
class NullProcessor : public EventProcessor {
 public:
  void OnEvent(const Event& event) override {
    benchmark::DoNotOptimize(event.amount);
  }
  void OnWatermark(Timestamp) override {}
  void OnFinish() override {}
};

void BM_SubstrateOnly(benchmark::State& state) {
  // Shared source, rewound per iteration: measures dispatch, not stream
  // copies (and events intern once, as in a live deployment).
  static VectorEventSource* source = new VectorEventSource(Stream());
  for (auto _ : state) {
    StreamExecutor exec;
    NullProcessor p;
    exec.Subscribe(&p);
    source->Reset();
    exec.BeginStream();
    while (EventBlock* block = source->NextBlock(1024)) {
      exec.ProcessBlock(block);
      exec.AdvanceWatermark(exec.max_event_ts());
    }
    exec.FinishStream();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamSize));
}
BENCHMARK(BM_SubstrateOnly)->Unit(benchmark::kMillisecond);

void RunQueryThroughput(benchmark::State& state, const std::string& query) {
  static VectorEventSource* source = new VectorEventSource(Stream());
  for (auto _ : state) {
    SaqlEngine engine;
    Status st = engine.AddQuery(query, "q");
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    engine.SetAlertSink([](const Alert&) {});
    source->Reset();
    st = engine.Run(source);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamSize));
}

void BM_RuleModel(benchmark::State& state) {
  RunQueryThroughput(state,
                     "proc p[\"%proc7.exe\"] write ip i as e "
                     "alert e.amount > 100000 return p, i");
}
BENCHMARK(BM_RuleModel)->Unit(benchmark::kMillisecond);

void BM_RuleModelSequence(benchmark::State& state) {
  RunQueryThroughput(state,
                     "proc a[\"%proc3.exe\"] write ip i as e1 "
                     "proc b[\"%proc5.exe\"] write ip j as e2 "
                     "with e1 ->[1 s] e2 "
                     "return distinct a, b");
}
BENCHMARK(BM_RuleModelSequence)->Unit(benchmark::kMillisecond);

void BM_TimeSeriesModel(benchmark::State& state) {
  RunQueryThroughput(
      state,
      "proc p write ip i as e #time(10 min) "
      "state[3] ss { avg_amount := avg(e.amount) } group by p "
      "alert (ss[0].avg_amount > (ss[0].avg_amount + |ss[1].avg_amount| + "
      "|ss[2].avg_amount|) / 3) && (ss[0].avg_amount > 10000) "
      "return p, ss[0].avg_amount");
}
BENCHMARK(BM_TimeSeriesModel)->Unit(benchmark::kMillisecond);

void BM_InvariantModel(benchmark::State& state) {
  RunQueryThroughput(
      state,
      "proc p write ip i as e #time(1 min) "
      "state ss { ips := set(i.dstip) } group by p "
      "invariant[10][offline] { a := empty_set a = a union ss.ips } "
      "alert |ss.ips diff a| > 0 "
      "return p, ss.ips");
}
BENCHMARK(BM_InvariantModel)->Unit(benchmark::kMillisecond);

void BM_OutlierModel(benchmark::State& state) {
  RunQueryThroughput(
      state,
      "proc p write ip i as e #time(10 min) "
      "state ss { amt := sum(e.amount) } group by i.dstip "
      "cluster(points=all(ss.amt), distance=\"ed\", "
      "method=\"DBSCAN(100000, 5)\") "
      "alert cluster.outlier && ss.amt > 1000000 "
      "return i.dstip, ss.amt");
}
BENCHMARK(BM_OutlierModel)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
