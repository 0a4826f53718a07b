#ifndef SAQL_STORAGE_RECOVERY_H_
#define SAQL_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/result.h"

namespace saql {

/// Result of recovering a durable log after a crash (or ungraceful
/// exit): the event stream re-assembled from the two persistence tiers.
struct RecoveredLog {
  /// The full recovered stream in sequence order: every event of the
  /// complete columnar segments, then the WAL tail replay.
  EventBatch events;
  /// Events that came from complete columnar segments (seqs
  /// 1..segment_events).
  uint64_t segment_events = 0;
  /// Events replayed from surviving WAL records past the segments.
  uint64_t wal_events = 0;
  /// WAL files found next to the log, in rotation order.
  std::vector<std::string> wal_files;
};

/// Scans `path`'s directory for `<path>.wal.<N>` files, returned in
/// rotation order. Leftover WAL files on a path with no live writer are
/// evidence of a crash that was never recovered — `DurableLogWriter`
/// refuses to open over them (see its `force_stale_wal` option).
Result<std::vector<std::string>> FindWalFiles(const std::string& path);

/// Recovers the durable log at `path`:
///
///   1. Reads the complete columnar segments of `path` (a torn final
///      segment — crash mid-segment-write — is dropped by the v2
///      reader's tail rule). These hold events with seqs 1..n.
///   2. Scans `path`'s directory for `<path>.wal.<N>` files and replays,
///      in rotation order, every surviving event with seq > n, decoding
///      each record with the segment decoder. Torn WAL tails (crash
///      mid-record) are detected by length/CRC and discarded — a torn
///      record drops exactly its chunk; a CRC-valid record that does not
///      decode is corruption (IoError).
///   3. Verifies the replay is gap-free (the pipeline deletes WAL files
///      only after their events are fsynced in segments, so a gap means
///      corruption, not a crash).
///
/// Works on healthy logs too: a cleanly closed durable log has no WAL
/// files and recovers to exactly its segment contents.
Result<RecoveredLog> RecoverDurableLog(const std::string& path);

/// Recovers `path` and rewrites it as a pure v2 columnar log containing
/// the recovered stream, then deletes the WAL files — after this the
/// log is a normal replayable artifact. Returns the recovery summary.
Result<RecoveredLog> CompactRecoveredLog(const std::string& path);

}  // namespace saql

#endif  // SAQL_STORAGE_RECOVERY_H_
