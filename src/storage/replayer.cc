#include "storage/replayer.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace saql {

namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StreamReplayer::StreamReplayer(const std::string& path, Filter filter)
    : filter_(std::move(filter)) {
  ColumnarLogReader::Options opts;
  opts.use_mmap = filter_.use_mmap;
  reader_ = std::make_unique<ColumnarLogReader>(path, opts);
  status_ = reader_->status();
  if (!status_.ok()) return;
  if (filter_.start_ts > 0) {
    // Time-range seek: jump the cursor past every segment that ends
    // before the range, without touching their payloads.
    seg_ = reader_->FirstSegmentAtOrAfter(filter_.start_ts);
    for (size_t i = 0; i < seg_; ++i) {
      filtered_out_ += reader_->segment(i).count;
    }
  }
}

bool StreamReplayer::Accept(const Event& e) const {
  if (e.ts < filter_.start_ts || e.ts >= filter_.end_ts) return false;
  if (!filter_.hosts.empty() &&
      filter_.hosts.find(e.agent_id) == filter_.hosts.end()) {
    return false;
  }
  return true;
}

void StreamReplayer::PaceTo(Timestamp ts) {
  if (filter_.speed <= 0.0) return;
  if (first_event_ts_ == INT64_MIN) {
    first_event_ts_ = ts;
    wall_start_ns_ = WallNowNs();
    return;
  }
  double event_elapsed = static_cast<double>(ts - first_event_ts_);
  int64_t target_wall_ns =
      wall_start_ns_ +
      static_cast<int64_t>(event_elapsed / filter_.speed);
  int64_t now = WallNowNs();
  if (target_wall_ns > now) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(target_wall_ns - now));
  }
}

bool StreamReplayer::LoadAcceptableSegment() {
  while (seg_pos_ >= seg_size_) {
    if (seg_size_ > 0) {
      ++seg_;
      seg_pos_ = 0;
      seg_size_ = 0;
    }
    if (seg_ >= reader_->num_segments()) return false;
    const ColumnarLogReader::SegmentInfo& info = reader_->segment(seg_);
    if (info.count == 0 || info.max_ts < filter_.start_ts ||
        info.min_ts >= filter_.end_ts) {
      // Whole segment outside the time range (or degenerate): skip it
      // via the index, payload untouched.
      filtered_out_ += info.count;
      ++seg_;
      continue;
    }
    Status st = reader_->LoadSegment(seg_);
    if (!st.ok()) {
      status_ = st;
      return false;
    }
    seg_size_ = info.count;
    // The segment passes wholesale when every event is inside the time
    // range and no per-event filtering or pacing is configured — then
    // ranges of it can be handed out zero-copy.
    seg_exact_ = filter_.hosts.empty() && filter_.speed <= 0.0 &&
                 info.min_ts >= filter_.start_ts &&
                 info.max_ts < filter_.end_ts;
  }
  return true;
}

EventBlock* StreamReplayer::NextBlock(size_t max_events) {
  if (!status_.ok() || max_events == 0) return nullptr;
  if (!LoadAcceptableSegment()) return nullptr;
  if (seg_exact_) {
    // Zero-copy: a sub-range of the loaded segment's columns.
    size_t n = std::min(max_events, seg_size_ - seg_pos_);
    reader_->BindRange(&out_block_, seg_pos_, n);
    seg_pos_ += n;
    replayed_ += n;
    return &out_block_;
  }
  // Row-filtered path: materialize the segment once, then filter (and
  // pace) rows into an owned block.
  EventBatch& rows = out_block_.ResetOwnedRows();
  while (rows.size() < max_events) {
    if (!LoadAcceptableSegment()) break;
    if (seg_exact_ && !rows.empty()) break;  // hand out the rows first
    if (seg_exact_) return NextBlock(max_events);
    if (seg_block_seg_ != seg_) {
      reader_->BindRange(&seg_block_, 0, seg_size_);
      seg_block_seg_ = seg_;
    }
    const Event* seg_rows = seg_block_.MutableRows();
    while (seg_pos_ < seg_size_ && rows.size() < max_events) {
      const Event& e = seg_rows[seg_pos_++];
      if (!Accept(e)) {
        ++filtered_out_;
        continue;
      }
      PaceTo(e.ts);
      ++replayed_;
      rows.push_back(e);
    }
  }
  return rows.empty() ? nullptr : &out_block_;
}

}  // namespace saql
