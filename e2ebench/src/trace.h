#ifndef SAQL_E2EBENCH_TRACE_H_
#define SAQL_E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into each engine module ("engine.push",
/// "storage.wal_append", ...), all from the driving thread, so nesting is
/// a stack: a span's parent is the span open when it began. The module of
/// a span is its name up to the first '.'. A disabled tracer records
/// nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    ///< index into spans(), -1 for a root
    uint32_t batch;    ///< batch id shared by one batch's spans, 0 = none
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (-1 when disabled).
  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Batch id stamped on spans begun from now on (0 = outside a batch).
  void SetBatch(uint32_t batch) { batch_ = batch; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of the spans named `name` with index in
  /// [from, spans().size()).
  std::vector<double> DurationsUs(const char* name, size_t from = 0) const;
  /// Total duration (ms) of the spans named `name` from index `from`.
  double TotalMs(const char* name, size_t from = 0) const;

  /// Self time per module (ms) over the subtree rooted at span `root`:
  /// each span's duration minus the time its child spans cover.
  std::map<std::string, double> SelfMsByModule(int32_t root) const;

  /// Writes every span as JSON ({"spans": [...]}), plus `self_ms` per
  /// module under `root`. Returns false on I/O failure.
  bool WriteJson(const std::string& path, int32_t root) const;

 private:
  bool enabled_;
  uint32_t batch_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace e2e

#endif  // SAQL_E2EBENCH_TRACE_H_
