#ifndef SAQL_STORAGE_DURABLE_LOG_H_
#define SAQL_STORAGE_DURABLE_LOG_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/event.h"
#include "core/result.h"
#include "storage/columnar_log.h"
#include "storage/file_backend.h"
#include "storage/wal.h"

namespace saql {

/// Trip-point names the durable pipeline announces to the file backend
/// ("crash here" markers for the fault-injection crash matrix).
namespace durable_trip {
/// Drainer: WAL records exist for a batch, segment write not started.
inline constexpr char kPreSegment[] = "durable.pre-segment";
/// Drainer: segments fsynced, covered WAL files about to be deleted.
inline constexpr char kPreWalDelete[] = "durable.pre-wal-delete";
/// Foreground: old WAL sealed and closed, new WAL about to be created.
inline constexpr char kWalRotate[] = "durable.wal-rotate";
}  // namespace durable_trip

/// Durable ingestion pipeline: the write path
///
///   Append ──► one WAL record per chunk (`<path>.wal.<N>`, CRC'd,
///            │ sync policy)
///            └► bounded queue of encoded chunks ──► drainer thread
///                 ──► columnar segments (`<path>`, v2 format)
///
/// The unit of recording is the appended batch: each chunk of at most
/// `segment_events` events is encoded once, as a v2 segment payload, and
/// costs one lock, one WAL write and one hand-off. The drainer, woken once
/// a segment's worth is queued, merges the chunks column by column into
/// full segments without re-encoding rows.
/// Appends ack according to `SyncPolicy` (see wal.h), applied once per
/// `Append` call: `always` acks only after the WAL fsync, `group` acks
/// immediately with the barrier batched, `none` never syncs the WAL.
/// Once segments are fsynced, the WAL files they fully cover are deleted
/// (rotation keeps individual WAL files bounded). `Close` drains
/// everything, leaving a pure v2 columnar log and no WAL files.
///
/// After a crash, `RecoverDurableLog` (recovery.h) = the complete
/// columnar segments + replay of the surviving WAL tail; torn WAL
/// records are discarded by CRC. WAL files are deleted only after the
/// covering segments are fsynced, so replay never has a gap.
///
/// Errors (disk full, I/O failure, injected crash) are sticky: the first
/// failure is returned to the failing `Append`/`Close` and every later
/// call; already-acked data stays recoverable. The owner (a recording
/// session) is expected to degrade gracefully — stop recording, keep
/// serving queries.
///
/// Thread contract: `Append`/`AppendBatch`/`Close` from one thread (it
/// alone assigns sequence numbers); the accessors are thread-safe.
class DurableLogWriter {
 public:
  struct Options {
    SyncPolicy sync;
    /// Events per columnar segment (ColumnarLogWriter::Options).
    size_t segment_events = 4096;
    /// Seal + rotate the WAL once the current file reaches this size.
    uint64_t wal_rotate_bytes = 4u << 20;
    /// Bounded hand-off queue to the drainer, in events. An append waits
    /// while the drainer is this far behind, then admits its whole chunk,
    /// so the queue overshoots by at most one chunk.
    size_t queue_capacity = 64 * 1024;
    /// File layer (nullptr = real files).
    FileBackend* backend = nullptr;
    /// Leftover `<path>.wal.<N>` files mean an earlier incarnation
    /// crashed (or was killed) and was never recovered; opening over
    /// them would silently discard their tail, so the constructor
    /// refuses with FailedPrecondition. Set this to delete the stale
    /// files instead (explicit data loss — run `RecoverDurableLog`
    /// first if the tail matters).
    bool force_stale_wal = false;
  };

  /// Creates/truncates the columnar log at `path` and the first WAL file
  /// `<path>.wal.0`, and starts the drainer. Refuses (FailedPrecondition)
  /// when stale WAL files from an unrecovered earlier incarnation exist
  /// at `path`, unless `force_stale_wal` cleans them up. Check
  /// `status()`.
  DurableLogWriter(const std::string& path, Options options);
  ~DurableLogWriter();

  DurableLogWriter(const DurableLogWriter&) = delete;
  DurableLogWriter& operator=(const DurableLogWriter&) = delete;

  /// First error anywhere in the pipeline (WAL, queue, drainer,
  /// segments). Sticky.
  Status status() const;

  /// Appends `events[0..n)` as chunks of at most `segment_events`.
  /// Returns OK = all acked per the sync policy's contract (`always`:
  /// durable now; `group`/`none`: accepted, durable at the next barrier).
  Status Append(const Event* events, size_t n);
  Status Append(const Event& event) { return Append(&event, 1); }
  Status AppendBatch(const EventBatch& events) {
    return Append(events.data(), events.size());
  }

  /// Drains the queue into segments, fsyncs, deletes the WAL files, and
  /// closes — on success `path` is a pure v2 columnar log. On error the
  /// surviving WAL files are kept for recovery. Idempotent.
  Status Close();

  /// Appends acked so far (== highest sequence number assigned).
  uint64_t appended_events() const;
  /// Highest sequence number known durable (WAL fsync or segment fsync).
  uint64_t durable_seq() const;
  /// Events fsynced into complete columnar segments.
  uint64_t events_in_segments() const;
  uint64_t wal_rotations() const;

 private:
  struct SealedWal {
    std::string path;
    uint64_t last_seq = 0;
  };

  /// Writes `encode_record_` to the WAL, applies the sync policy when
  /// `apply_sync`, and moves the record to the drainer's queue (one `mu_`
  /// acquisition).
  Status AppendEncodedRecord(bool apply_sync);
  /// Drainer thread body.
  void DrainLoop();
  /// Merges queued chunks into the columnar writer; fsyncs + deletes
  /// covered WALs when segments advanced. Called with `mu_` held;
  /// releases it around file I/O.
  void DrainBatchLocked(std::unique_lock<std::mutex>& lock);
  /// WAL durability barrier: fsync + advance `wal_synced_seq_`. `mu_`
  /// held (appends stall for the fsync's duration — the group-commit
  /// trade).
  void WalBarrierLocked();
  /// Seals the current WAL and opens `<path>.wal.<N+1>`. `mu_` held.
  void RotateWalLocked();
  /// Records the first error. `mu_` held.
  void SetStatusLocked(const Status& st);

  std::string path_;
  Options options_;
  FileBackend* backend_;  ///< resolved, never null

  mutable std::mutex mu_;
  std::condition_variable cv_drainer_;  ///< work available / closing
  std::condition_variable cv_space_;    ///< queue has room

  Status status_;
  bool closing_ = false;
  bool closed_ = false;

  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_index_ = 0;       ///< suffix of the current WAL file
  uint64_t next_seq_ = 1;
  uint64_t wal_synced_seq_ = 0;  ///< last seq covered by a WAL fsync
  uint64_t unsynced_bytes_ = 0;  ///< WAL bytes past the last barrier
  /// When `unsynced_bytes_` went 0 → >0: start of the open commit window.
  std::chrono::steady_clock::time_point window_start_;
  std::vector<SealedWal> sealed_;
  uint64_t rotations_ = 0;

  std::vector<WalRecord> queue_;  ///< seq order; front = oldest
  size_t queued_events_ = 0;
  /// Drained record buffers, capacity kept, for the appender to reuse;
  /// their capacity totals `spare_bytes_` <= `kSpareBytes`.
  static constexpr size_t kSpareBytes = 1u << 20;
  std::vector<std::string> spare_;
  size_t spare_bytes_ = 0;

  // Appender-owned: the chunk being encoded.
  EventBlock encode_block_;
  WalRecord encode_record_;

  // Drainer-owned (no lock needed beyond the hand-off).
  std::unique_ptr<ColumnarLogWriter> columnar_;
  uint64_t seg_durable_seq_ = 0;  ///< events fsynced in segments
  std::vector<WalRecord> draining_;
  SegmentPayload drain_payload_;
  EventBlock drain_block_;

  std::thread drainer_;
};

}  // namespace saql

#endif  // SAQL_STORAGE_DURABLE_LOG_H_
