// E6b ablation: SAQL's incremental state maintainer vs a buffer-and-
// recompute baseline modeled after general-purpose CEP engines. The paper
// (§I) argues existing stream systems "have to make multiple copies of the
// data for the queries"; this benchmark makes the cost concrete:
//
//   - kIncremental: the SAQL engine folds each matched event into per-group
//     aggregates in place (one pass, no event retention).
//   - kBuffered: the baseline copies every structurally matching event into
//     each window's buffer and recomputes group aggregates at window close
//     (what a windowed query on a generic event buffer does).
//
// Expected shape: buffered time grows with window length (larger replays)
// and its peak memory is proportional to events-per-window, while the
// incremental engine's state is O(groups), independent of window length.

#include <map>
#include <unordered_map>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/engine.h"
#include "stream/window.h"

namespace saql {
namespace {

constexpr size_t kStreamSize = 200000;

const EventBatch& Stream() {
  static const EventBatch* stream =
      new EventBatch(bench::NetWriteStream(kStreamSize, 100, 20));
  return *stream;
}

/// The baseline: buffer event copies per window, recompute at close.
/// Implements the same query as the benchmark's SAQL text — per-process
/// sum of network-write volume with a threshold alert.
class BufferedWindowEvaluator : public EventProcessor {
 public:
  explicit BufferedWindowEvaluator(Duration window_len)
      : assigner_(MakeSpec(window_len)) {}

  void OnEvent(const Event& event) override {
    if (event.op != EventOp::kWrite ||
        event.object_type != EntityType::kNetwork) {
      return;
    }
    for (const TimeWindow& w : assigner_.Assign(event.ts)) {
      auto& buf = buffers_[w.end];
      buf.window = w;
      buf.events.push_back(event);  // the data copy the paper calls out
      ++events_copied_;
    }
    size_t total = 0;
    for (const auto& [end, b] : buffers_) total += b.events.size();
    peak_buffered_ = std::max(peak_buffered_, total);
  }

  void OnWatermark(Timestamp ts) override {
    while (!buffers_.empty() && buffers_.begin()->first <= ts) {
      Close(buffers_.begin()->second);
      buffers_.erase(buffers_.begin());
    }
  }

  void OnFinish() override {
    for (auto& [end, b] : buffers_) Close(b);
    buffers_.clear();
  }

  uint64_t alerts() const { return alerts_; }
  uint64_t events_copied() const { return events_copied_; }
  size_t peak_buffered() const { return peak_buffered_; }

 private:
  struct Buffer {
    TimeWindow window;
    EventBatch events;
  };

  static WindowSpec MakeSpec(Duration len) {
    WindowSpec spec;
    spec.kind = WindowSpec::Kind::kTime;
    spec.length = len;
    return spec;
  }

  void Close(const Buffer& buf) {
    // Recompute per-group sums from the retained events.
    std::unordered_map<std::string, int64_t> sums;
    for (const Event& e : buf.events) {
      sums[e.subject.exe_name] += e.amount;
    }
    for (const auto& [group, sum] : sums) {
      if (sum > 100000000) ++alerts_;
    }
  }

  WindowAssigner assigner_;
  std::map<Timestamp, Buffer> buffers_;
  uint64_t alerts_ = 0;
  uint64_t events_copied_ = 0;
  size_t peak_buffered_ = 0;
};

void BM_BufferedBaseline(benchmark::State& state) {
  Duration window = static_cast<Duration>(state.range(0)) * kSecond;
  // Shared source, rewound per iteration: measures the evaluator, not
  // per-iteration stream copies (events intern once).
  static VectorEventSource* source = new VectorEventSource(Stream());
  size_t peak = 0;
  for (auto _ : state) {
    StreamExecutor exec;
    BufferedWindowEvaluator baseline(window);
    exec.Subscribe(&baseline);
    source->Reset();
    exec.BeginStream();
    while (EventBlock* block = source->NextBlock(1024)) {
      exec.ProcessBlock(block);
      exec.AdvanceWatermark(exec.max_event_ts());
    }
    exec.FinishStream();
    peak = baseline.peak_buffered();
    benchmark::DoNotOptimize(baseline.alerts());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamSize));
  state.counters["window_s"] = static_cast<double>(state.range(0));
  state.counters["peak_buffered_events"] = static_cast<double>(peak);
}
BENCHMARK(BM_BufferedBaseline)
    ->Arg(10)
    ->Arg(60)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalEngine(benchmark::State& state) {
  static VectorEventSource* source = new VectorEventSource(Stream());
  std::string query =
      "proc p write ip i as e #time(" + std::to_string(state.range(0)) +
      " s) state ss { amt := sum(e.amount) } group by p "
      "alert ss.amt > 100000000 return p, ss.amt";
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
  state.counters["window_s"] = static_cast<double>(state.range(0));
  state.counters["peak_buffered_events"] = 0;  // no event retention
}
BENCHMARK(BM_IncrementalEngine)
    ->Arg(10)
    ->Arg(60)
    ->Arg(600)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saql

BENCHMARK_MAIN();
