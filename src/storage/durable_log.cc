#include "storage/durable_log.h"

#include <algorithm>
#include <utility>

#include "storage/recovery.h"

namespace saql {

namespace {

std::string WalPath(const std::string& base, uint64_t index) {
  return base + ".wal." + std::to_string(index);
}

}  // namespace

DurableLogWriter::DurableLogWriter(const std::string& path, Options options)
    : path_(path),
      options_(options),
      backend_(FileBackend::OrReal(options.backend)) {
  if (options_.segment_events == 0) options_.segment_events = 4096;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;

  // Stale-WAL hygiene: `<path>.wal.<N>` files with no live writer are the
  // unrecovered tail of a crashed incarnation. Creating fresh WAL files
  // next to them would interleave two incompatible sequence spaces, and
  // truncating the columnar log below silently drops whatever that tail
  // held — so refuse, unless the caller explicitly forces cleanup.
  Result<std::vector<std::string>> stale = FindWalFiles(path_);
  if (!stale.ok()) {
    status_ = stale.status();
    return;
  }
  if (!stale->empty()) {
    if (!options_.force_stale_wal) {
      status_ = Status::FailedPrecondition(
          "stale WAL files exist at '" + path_ + "' (first: '" +
          stale->front() +
          "'): an earlier durable log here was never recovered; run "
          "recovery (RecoverDurableLog/CompactRecoveredLog) or force "
          "cleanup to discard its tail");
      return;
    }
    for (const std::string& wal : *stale) {
      Status st = backend_->Delete(wal);
      if (!st.ok()) {
        status_ = st;
        return;
      }
    }
  }

  ColumnarLogWriter::Options copts;
  copts.segment_events = options_.segment_events;
  copts.backend = backend_;
  columnar_ = std::make_unique<ColumnarLogWriter>(path_, copts);
  if (!columnar_->status().ok()) {
    status_ = columnar_->status();
    return;
  }
  wal_ = std::make_unique<WalWriter>(WalPath(path_, wal_index_),
                                     /*first_seq=*/1, backend_);
  if (!wal_->status().ok()) {
    status_ = wal_->status();
    return;
  }
  drainer_ = std::thread([this] { DrainLoop(); });
}

DurableLogWriter::~DurableLogWriter() { Close(); }

Status DurableLogWriter::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void DurableLogWriter::SetStatusLocked(const Status& st) {
  if (!st.ok() && status_.ok()) {
    status_ = st;
    // Unstick everyone: appenders blocked on queue space must see the
    // failure, the drainer must re-evaluate its wait.
    cv_space_.notify_all();
    cv_drainer_.notify_all();
  }
}

Status DurableLogWriter::Append(const Event* events, size_t n) {
  if (n == 0) return status();
  for (size_t done = 0; done < n;) {
    const size_t count = std::min(n - done, options_.segment_events);
    // Encoded outside `mu_`: only this thread advances `next_seq_`.
    encode_block_.Clear();
    encode_block_.AppendRows(events + done, count);
    EncodeWalRecord(next_seq_, encode_block_, &encode_record_);
    done += count;
    SAQL_RETURN_IF_ERROR(AppendEncodedRecord(done == n));
  }
  return Status::Ok();
}

Status DurableLogWriter::AppendEncodedRecord(bool apply_sync) {
  const WalRecord& record = encode_record_;
  std::unique_lock<std::mutex> lock(mu_);
  SAQL_RETURN_IF_ERROR(status_);
  if (closing_ || closed_) {
    return Status::FailedPrecondition("durable log is closed");
  }

  const uint64_t before = wal_->bytes_written();
  Status st = wal_->Append(record);
  if (!st.ok()) {
    SetStatusLocked(st);
    return st;
  }
  next_seq_ += record.count;
  const bool window_opened = unsynced_bytes_ == 0;
  if (window_opened) window_start_ = std::chrono::steady_clock::now();
  unsynced_bytes_ += wal_->bytes_written() - before;

  if (apply_sync) {
    switch (options_.sync.mode) {
      case SyncMode::kAlways:
        WalBarrierLocked();
        if (!status_.ok()) return status_;
        break;
      case SyncMode::kGroupCommit:
        if (unsynced_bytes_ >= options_.sync.max_bytes) {
          WalBarrierLocked();
          // A barrier failure surfaces on the *next* append: this chunk's
          // WAL record was accepted, which is all group commit promises.
        }
        break;
      case SyncMode::kNone:
        break;
    }
  }

  // Hand off to the drainer. Backpressure waits for the queue to drop
  // below capacity and then admits the whole chunk — never for room for
  // the chunk, which a chunk larger than the capacity would never get.
  cv_space_.wait(lock, [this] {
    return queued_events_ < options_.queue_capacity || !status_.ok() ||
           closing_;
  });
  if (closing_ || closed_) {
    return Status::FailedPrecondition("durable log is closed");
  }
  queued_events_ += record.count;
  queue_.push_back(std::exchange(encode_record_, WalRecord{}));
  if (!spare_.empty()) {
    spare_bytes_ -= spare_.back().capacity();
    encode_record_.bytes = std::move(spare_.back());
    spare_.pop_back();
  }
  // The drainer has nothing to write before a segment's worth is queued,
  // and waking it costs the appender a syscall: wake it per segment (or
  // full queue), and when a group-commit window opens so it arms the
  // barrier deadline.
  if (queued_events_ >= std::min(options_.segment_events,
                                 options_.queue_capacity) ||
      (window_opened && options_.sync.mode == SyncMode::kGroupCommit)) {
    cv_drainer_.notify_one();
  }

  if (wal_->bytes_written() >= options_.wal_rotate_bytes) {
    RotateWalLocked();
  }
  return status_;
}

void DurableLogWriter::WalBarrierLocked() {
  if (wal_ == nullptr) return;
  const uint64_t target = next_seq_ - 1;
  Status st = wal_->Sync();
  if (!st.ok()) {
    SetStatusLocked(st);
    return;
  }
  wal_synced_seq_ = std::max(wal_synced_seq_, target);
  unsynced_bytes_ = 0;
}

void DurableLogWriter::RotateWalLocked() {
  // Seal: make the retiring file fully durable (except under `none`,
  // whose contract defers all WAL durability to segment barriers), then
  // swap in a fresh file continuing the sequence.
  const uint64_t last_seq = next_seq_ - 1;
  if (options_.sync.mode != SyncMode::kNone) {
    WalBarrierLocked();
    if (!status_.ok()) return;
  }
  Status st = wal_->Close();
  if (!st.ok()) {
    SetStatusLocked(st);
    return;
  }
  sealed_.push_back({wal_->path(), last_seq});
  unsynced_bytes_ = 0;  // the open window (if any) died with the seal
  backend_->TripPoint(durable_trip::kWalRotate);
  ++wal_index_;
  wal_ = std::make_unique<WalWriter>(WalPath(path_, wal_index_), next_seq_,
                                     backend_);
  if (!wal_->status().ok()) {
    SetStatusLocked(wal_->status());
    return;
  }
  ++rotations_;
}

void DurableLogWriter::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      DrainBatchLocked(lock);
      continue;
    }
    if (closing_) break;
    if (options_.sync.mode == SyncMode::kGroupCommit &&
        unsynced_bytes_ > 0 && status_.ok()) {
      auto deadline = window_start_ + std::chrono::microseconds(
                                          options_.sync.max_delay_us);
      if (cv_drainer_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        if (unsynced_bytes_ > 0 && status_.ok()) WalBarrierLocked();
      }
    } else {
      cv_drainer_.wait(lock);
    }
  }
}

void DurableLogWriter::DrainBatchLocked(std::unique_lock<std::mutex>& lock) {
  draining_.swap(queue_);
  queued_events_ = 0;
  cv_space_.notify_all();

  if (!status_.ok()) {
    draining_.clear();  // discard: the WAL retains these events
    return;
  }

  lock.unlock();
  backend_->TripPoint(durable_trip::kPreSegment);
  Status st;
  for (const WalRecord& record : draining_) {
    st = BindWalRecord(record, &drain_payload_, &drain_block_);
    if (st.ok()) st = columnar_->WriteBlock(&drain_block_);
    if (!st.ok()) break;
  }

  // Segment barrier: once new segments are fsynced, the WAL files they
  // fully cover are dead weight.
  uint64_t newly_durable = 0;
  if (st.ok() && columnar_->events_written() > seg_durable_seq_) {
    st = columnar_->Sync();
    if (st.ok()) newly_durable = columnar_->events_written();
  }

  std::vector<SealedWal> deletable;
  lock.lock();
  // Spent record buffers go back to the appender with their capacity, so
  // steady-state appends neither allocate nor free across threads.
  for (WalRecord& record : draining_) {
    const size_t bytes = record.bytes.capacity();
    if (spare_bytes_ + bytes > kSpareBytes) break;
    spare_bytes_ += bytes;
    spare_.push_back(std::move(record.bytes));
  }
  draining_.clear();
  if (!st.ok()) {
    SetStatusLocked(st);
    return;
  }
  if (newly_durable > seg_durable_seq_) {
    seg_durable_seq_ = newly_durable;
    auto covered = [this](const SealedWal& w) {
      return w.last_seq <= seg_durable_seq_;
    };
    for (const SealedWal& w : sealed_) {
      if (covered(w)) deletable.push_back(w);
    }
    sealed_.erase(std::remove_if(sealed_.begin(), sealed_.end(), covered),
                  sealed_.end());
  }
  if (deletable.empty()) return;

  lock.unlock();
  backend_->TripPoint(durable_trip::kPreWalDelete);
  Status del;
  for (const SealedWal& w : deletable) {
    Status one = backend_->Delete(w.path);
    if (!one.ok() && del.ok()) del = one;
  }
  lock.lock();
  if (!del.ok()) SetStatusLocked(del);
}

Status DurableLogWriter::Close() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return status_;
    closing_ = true;
    cv_drainer_.notify_all();
    cv_space_.notify_all();
  }
  if (drainer_.joinable()) drainer_.join();

  std::unique_lock<std::mutex> lock(mu_);
  // The drainer is gone; this thread owns the columnar writer now.
  if (status_.ok() && columnar_ != nullptr) {
    lock.unlock();
    Status st = columnar_->Flush();
    if (st.ok()) st = columnar_->Sync();
    uint64_t durable = columnar_->events_written();
    if (st.ok()) st = columnar_->Close();
    lock.lock();
    if (st.ok()) seg_durable_seq_ = durable;
    SetStatusLocked(st);
  } else if (columnar_ != nullptr) {
    lock.unlock();
    columnar_->Close();
    lock.lock();
  }

  if (wal_ != nullptr) {
    Status st = wal_->Close();
    if (status_.ok()) SetStatusLocked(st);
  }

  // Everything acked is in fsynced segments on the success path — the
  // WAL files are spent. On the error path keep them: they are the
  // recovery story for whatever the segments are missing.
  if (status_.ok()) {
    for (const SealedWal& w : sealed_) backend_->Delete(w.path);
    if (wal_ != nullptr) backend_->Delete(wal_->path());
    sealed_.clear();
  }
  closed_ = true;
  return status_;
}

uint64_t DurableLogWriter::appended_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

uint64_t DurableLogWriter::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(wal_synced_seq_, seg_durable_seq_);
}

uint64_t DurableLogWriter::events_in_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seg_durable_seq_;
}

uint64_t DurableLogWriter::wal_rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

}  // namespace saql
