#include "runner.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "stats.h"
#include "storage/durable_log.h"
#include "storage/replayer.h"

namespace e2e {

namespace {

using saql::Event;
using saql::Status;

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FnvStr(uint64_t h, const std::string& s) {
  return Fnv(h, s.data(), s.size() + 1);  // include the terminator
}

uint64_t QueryHash(const std::string& name) { return FnvStr(kFnvBasis, name); }

/// Recording target: real files written through the page cache, with the
/// durability barrier (fsync) reduced to a status check — what fsync costs
/// on tmpfs. The recording pipeline does all of its work (serialization,
/// CRCs, WAL rotation, columnar segments, file writes and deletes); only a
/// shared disk's fsync latency, which varies with other tenants' I/O, is
/// left out of the measurement.
class PageCacheFile : public saql::WritableFile {
 public:
  explicit PageCacheFile(std::unique_ptr<saql::WritableFile> file)
      : file_(std::move(file)) {}
  Status Append(const void* data, size_t size) override {
    return file_->Append(data, size);
  }
  Status Sync() override { return file_->status(); }
  Status Close() override { return file_->Close(); }
  Status status() const override { return file_->status(); }
  uint64_t bytes_written() const override { return file_->bytes_written(); }

 private:
  std::unique_ptr<saql::WritableFile> file_;
};

class PageCacheBackend : public saql::FileBackend {
 public:
  saql::Result<std::unique_ptr<saql::WritableFile>> Create(
      const std::string& path) override {
    auto file = saql::FileBackend::Real()->Create(path);
    if (!file.ok()) return file.status();
    return {std::make_unique<PageCacheFile>(std::move(file).value())};
  }
  Status Delete(const std::string& path) override {
    return saql::FileBackend::Real()->Delete(path);
  }
};

}  // namespace

saql::FileBackend* RecordBackend() {
  static PageCacheBackend* backend = new PageCacheBackend();
  return backend;
}

bool RemoveRecording(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(path, ec);
  fs::path p(path);
  std::string prefix = p.filename().string() + ".wal.";
  bool clean = !fs::exists(path, ec);
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      fs::remove(entry.path(), ec);
      if (fs::exists(entry.path(), ec)) clean = false;
    }
  }
  return clean;
}

struct Runner::Live {
  std::unique_ptr<saql::SaqlEngine> engine;
  std::unique_ptr<saql::SaqlEngine::Session> session;
  std::string record_path;
};

Runner::Runner(Workload* workload, ScratchDir* dir, Tracer* tracer)
    : w_(workload), dir_(dir), tracer_(tracer) {
  alerts_.reserve(1 << 18);
}

bool Runner::Note(const Status& st, const char* what) {
  ++attempted_;
  if (st.ok()) return true;
  ++failed_;
  std::fprintf(stderr, "FAILED %s: %s\n", what, st.ToString().c_str());
  return false;
}

bool Runner::Gate(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  return false;
}

void Runner::Sink(const saql::Alert& a) {
  ScopedSpan span(tracer_, "driver.sink");
  AlertRec r;
  r.wall_ns = NowNs();
  r.ts = a.ts;
  r.at_close = closing_;
  r.query_hash = QueryHash(a.query_name);
  uint64_t h = FnvStr(r.query_hash, a.group);
  h = Fnv(h, &a.ts, sizeof(a.ts));
  if (a.window) {
    h = Fnv(h, &a.window->start, sizeof(a.window->start));
    h = Fnv(h, &a.window->end, sizeof(a.window->end));
  }
  for (const auto& [label, value] : a.values) {
    h = FnvStr(h, label);
    h = FnvStr(h, value.ToString());
  }
  r.hash = h;
  alerts_.push_back(r);
}

std::unique_ptr<Runner::Live> Runner::Open(size_t lanes, bool record) {
  auto live = std::make_unique<Live>();
  saql::SaqlEngine::Options eo;
  eo.file_backend = RecordBackend();
  live->engine = std::make_unique<saql::SaqlEngine>(eo);
  for (const QuerySpec& q : w_->queries) {
    ScopedSpan span(tracer_, "engine.add_query");
    if (!Note(live->engine->AddQuery(q.text, q.name), "AddQuery")) {
      return nullptr;
    }
  }
  saql::SessionOptions so;
  so.num_shards = lanes;
  so.alert_sink = [this](const saql::Alert& a) { Sink(a); };
  if (record) {
    live->record_path = dir_->NewPath("rec") + ".saqllog";
    so.record_path = live->record_path;
    so.record_sync = RecordSync();
  }
  ScopedSpan span(tracer_, "engine.open_session");
  auto session = live->engine->OpenSession(std::move(so));
  if (!Note(session.status(), "OpenSession")) return nullptr;
  live->session = std::move(session).value();
  return live;
}

double Runner::MeasureSetup() {
  int64_t t0 = NowNs();
  auto live = Open(1, w_->record);
  int64_t t1 = NowNs();
  if (live == nullptr) return -1;
  Note(live->session->Close(), "Close");
  live->session.reset();
  if (!live->record_path.empty()) {
    Gate(RemoveRecording(live->record_path), "set-up recording removed");
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

PassResult Runner::RunPass(const PassOptions& o) {
  PassResult r;
  const bool record = o.record >= 0 ? o.record != 0 : w_->record;
  const bool split = record && o.split_record;
  Tracer untraced(false);
  Tracer* tr = o.traced ? tracer_ : &untraced;
  Tracer* saved = tracer_;
  tracer_ = tr;  // the sink and Open record into the pass's tracer

  // Every pass does the same interning work: Push interns in place and
  // later pushes would skip already-stamped events.
  for (Event& e : w_->events) e.syms = saql::EventSymbols{};
  alerts_.clear();
  closing_ = false;
  // Every pass starts from the same heap: the memory the pass before
  // freed goes back to the OS, so the peak below is this pass's own and
  // not a high-water mark carried over from an earlier pass.
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();

  auto live = Open(o.lanes, record && !split);
  if (live == nullptr) {
    tracer_ = saved;
    r.must_alert_ok = false;
    return r;
  }
  saql::SaqlEngine::Session* s = live->session.get();
  std::unique_ptr<saql::DurableLogWriter> writer;
  if (split) {
    live->record_path = dir_->NewPath("rec") + ".saqllog";
    saql::DurableLogWriter::Options wo;
    wo.sync = RecordSync();
    wo.backend = RecordBackend();
    writer = std::make_unique<saql::DurableLogWriter>(live->record_path, wo);
    Note(writer->status(), "DurableLogWriter");
  }
  r.record_path = live->record_path;
  Event* const events = w_->events.data();
  const size_t num_events = w_->events.size();

  size_t churn_next = 0;
  auto next_churn_pos = [&]() {
    return churn_next < w_->churn.size() ? w_->churn[churn_next].position
                                         : SIZE_MAX;
  };
  size_t pos = 0;
  auto apply_churn = [&]() {
    while (churn_next < w_->churn.size() &&
           w_->churn[churn_next].position == pos) {
      const ChurnOp& op = w_->churn[churn_next++];
      r.churn_positions.push_back(pos);
      if (!op.remove.empty()) {
        ScopedSpan span(tr, "engine.churn_remove");
        Note(s->RemoveQuery(op.remove), "RemoveQuery");
      }
      if (!op.add.name.empty()) {
        ScopedSpan span(tr, "engine.churn_add");
        Note(s->AddQuery(op.add.text, op.add.name).status(), "AddQuery");
      }
    }
  };
  uint32_t batch_id = 0;
  // Pushes events [pos, pos + n).
  auto push = [&](size_t n) {
    Event* batch = events + pos;
    if (++batch_id == 1) {
      r.syms_clean_at_start = std::all_of(
          batch, batch + n, [](const Event& e) { return e.syms.gen == 0; });
    }
    tr->SetBatch(batch_id);
    if (writer) {
      ScopedSpan span(tr, "storage.wal_append");
      for (size_t i = 0; i < n; ++i) {
        if (!writer->Append(batch[i]).ok()) {
          Note(writer->status(), "DurableLogWriter::Append");
          break;
        }
      }
    }
    {
      ScopedSpan span(tr, "engine.push");
      Note(s->Push(batch, n), "Push");
    }
    {
      ScopedSpan span(tr, "engine.watermark");
      Note(s->AdvanceWatermark(s->max_event_ts()), "AdvanceWatermark");
    }
    tr->SetBatch(0);
    pos += n;
    if (batch_id % 64 == 1) {
      r.threads_max = std::max(r.threads_max, ProcStatus("Threads"));
    }
  };

  const double span_ns =
      static_cast<double>(std::max<saql::Timestamp>(1, w_->last_ts - w_->first_ts));
  const double wall_per_ts =
      (static_cast<double>(num_events) / w_->open_rate_eps * 1e9) /
      span_ns;
  constexpr int64_t kTickNs = 1'000'000;  // collector flush interval
  int64_t t0 = NowNs() + (o.open_loop ? kTickNs : 0);
  auto due = [&](saql::Timestamp ts) {
    return t0 + static_cast<int64_t>(static_cast<double>(ts - w_->first_ts) *
                                     wall_per_ts);
  };

  const int64_t cpu0 = ProcessCpuNs();
  {
    ScopedSpan pass(tr, o.open_loop ? "driver.open_pass" : "driver.closed_pass");
    r.root_span = pass.index();
    if (!o.open_loop) {
      t0 = NowNs();
      while (pos < num_events) {
        apply_churn();
        push(std::min({kBatchEvents, num_events - pos, next_churn_pos() - pos}));
      }
    } else {
      int64_t next_tick = t0;
      while (pos < num_events) {
        int64_t now = NowNs();
        // Spin to the tick: a sleeping generator's wake-up lag would add
        // scheduler noise to every latency sample.
        while (now < next_tick) {
          std::this_thread::yield();
          now = NowNs();
        }
        // Flush every event due by the latest tick boundary, in one Push
        // unless a churn operation falls inside it.
        const int64_t boundary = t0 + (now - t0) / kTickNs * kTickNs;
        next_tick = boundary + kTickNs;
        size_t flushed = 0;
        while (pos < num_events) {
          apply_churn();
          const size_t end = std::min(num_events, next_churn_pos());
          size_t k = 0;
          while (pos + k < end && due(events[pos + k].ts) <= boundary) ++k;
          if (k == 0) break;
          if (flushed == 0) {
            // Scheduled send time: the first tick at or after the oldest
            // pending event was due.
            int64_t d = due(events[pos].ts);
            int64_t sched = t0 + (d - t0 + kTickNs - 1) / kTickNs * kTickNs;
            r.gen_late_ms.push_back(static_cast<double>(now - sched) / 1e6);
          }
          flushed += k;
          push(k);
        }
        r.backlog_max = std::max(r.backlog_max, flushed);
      }
    }
    {
      ScopedSpan span(tr, "engine.flush");
      Note(s->Flush(), "Flush");
    }
    if (writer || record) {
      ScopedSpan span(tr, "storage.drain_wait");
      while (writer ? writer->durable_seq() < writer->appended_events()
                    : s->durable_events() < s->recorded_events()) {
        if (writer ? !writer->status().ok() : !s->recording_status().ok()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
  }
  const int64_t t1 = NowNs();
  const int64_t cpu1 = ProcessCpuNs();
  r.events = pos;
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.cpu_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  r.threads_max = std::max(r.threads_max, ProcStatus("Threads"));

  r.groups = s->num_groups();
  r.indexed_groups = s->num_indexed_groups();
  r.forward_ratio = s->forward_ratio();
  saql::ExecutorStats es = s->executor_stats();
  r.deliveries_per_event =
      pos == 0 ? 0 : static_cast<double>(es.deliveries) / static_cast<double>(pos);
  uint64_t matches = 0, past_global = 0;
  for (const auto& [name, qs] : s->query_stats()) {
    matches += qs.matches;
    past_global += qs.events_past_global;
  }
  r.match_ratio = past_global == 0
                      ? 0
                      : static_cast<double>(matches) / static_cast<double>(past_global);

  closing_ = true;
  {
    ScopedSpan span(tr, "engine.close");
    Note(s->Close(), "Close");
    if (writer) Note(writer->Close(), "DurableLogWriter::Close");
  }
  if (record) {
    if (!split) Note(s->recording_status(), "recording");
    saql::StreamReplayer replay(live->record_path, saql::StreamReplayer::Filter{});
    size_t replayed = 0;
    if (Note(replay.status(), "replay recording")) {
      while (saql::EventBlock* b = replay.NextBlock(4096)) {
        if (b->empty()) break;
        replayed += b->size();
      }
    }
    r.record_ok = replayed == pos;
    if (!r.record_ok) {
      std::fprintf(stderr, "recording replayed %zu events, pushed %zu\n",
                   replayed, pos);
    }
  }
  live.reset();
  if (peak_reset) r.peak_rss_kb = ProcStatus("VmHWM");
  if (!r.record_path.empty()) {
    r.record_ok = RemoveRecording(r.record_path) && r.record_ok;
  }

  r.alerts = alerts_.size();
  r.multiset.reserve(alerts_.size());
  for (const AlertRec& a : alerts_) {
    r.multiset.push_back(a.hash);
    if (o.open_loop && !a.at_close) {
      r.latency_ms.push_back(static_cast<double>(a.wall_ns - due(a.ts)) / 1e6);
    }
  }
  std::sort(r.multiset.begin(), r.multiset.end());
  for (const std::string& q : w_->must_alert) {
    uint64_t qh = QueryHash(q);
    bool seen = std::any_of(alerts_.begin(), alerts_.end(),
                            [&](const AlertRec& a) { return a.query_hash == qh; });
    if (!seen) {
      std::fprintf(stderr, "no alert from %s\n", q.c_str());
      r.must_alert_ok = false;
    }
  }
  tracer_ = saved;
  return r;
}

}  // namespace e2e
