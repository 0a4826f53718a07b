#ifndef SAQL_STORAGE_REPLAYER_H_
#define SAQL_STORAGE_REPLAYER_H_

#include <memory>
#include <set>
#include <string>

#include "core/event.h"
#include "core/event_block.h"
#include "core/result.h"
#include "storage/columnar_log.h"
#include "stream/event_source.h"

namespace saql {

/// The paper's stream replayer (Fig. 4): replays stored monitoring data as
/// a live stream so attacks can be reproduced against different queries.
/// The web UI's controls — host selection and start/end time — are the
/// filter options here; `speed` controls pacing:
///
///  - speed == 0: as fast as possible (benchmarks, tests);
///  - speed == 1: real time (1s of event time per wall second);
///  - speed == N: N× faster than real time.
///
/// Logs are v2 columnar logs, replayed through the mmap'd
/// `ColumnarLogReader` — the time range seeks (and skips) whole segments
/// via the segment index, and when no per-event work is needed (no host
/// filter, no pacing, segment fully inside the time range) the replayer
/// hands out zero-copy columnar blocks (one reused block, whose rows are
/// rebound segment after segment).
class StreamReplayer : public EventSource {
 public:
  struct Filter {
    /// Empty = all hosts.
    std::set<std::string> hosts;
    /// Half-open event-time range; 0/INT64_MAX = unbounded.
    Timestamp start_ts = 0;
    Timestamp end_ts = INT64_MAX;
    /// Replay speed multiplier; 0 disables pacing.
    double speed = 0.0;
    /// mmap the log and alias columns out of the mapping; off = buffered
    /// per-segment reads (ablation baseline / mmap-less filesystems).
    bool use_mmap = true;
  };

  /// Opens `path`; check `status()` before use.
  StreamReplayer(const std::string& path, Filter filter);

  Status status() const { return status_; }

  EventBlock* NextBlock(size_t max_events) override;

  /// Events skipped by the filter so far (time-range segment skips count
  /// whole segments without touching their payloads).
  uint64_t filtered_out() const { return filtered_out_; }
  uint64_t replayed() const { return replayed_; }

 private:
  bool Accept(const Event& e) const;
  void PaceTo(Timestamp ts);

  /// Advances seg_/seg_pos_ to the next event range the filter can
  /// accept; returns false at end of log (or on error → status_).
  bool LoadAcceptableSegment();

  std::unique_ptr<ColumnarLogReader> reader_;
  Filter filter_;
  Status status_;
  uint64_t filtered_out_ = 0;
  uint64_t replayed_ = 0;
  Timestamp first_event_ts_ = INT64_MIN;
  int64_t wall_start_ns_ = 0;

  // Segment cursor.
  size_t seg_ = 0;        ///< current segment index
  size_t seg_pos_ = 0;    ///< next event within the segment
  size_t seg_size_ = 0;   ///< events in the loaded segment
  bool seg_exact_ = false;  ///< loaded segment passes the filter wholesale
  EventBlock seg_block_;  ///< full-segment bind (row-filtered path)
  size_t seg_block_seg_ = static_cast<size_t>(-1);  ///< segment it binds
  EventBlock out_block_;  ///< block handed to the consumer
};

}  // namespace saql

#endif  // SAQL_STORAGE_REPLAYER_H_
