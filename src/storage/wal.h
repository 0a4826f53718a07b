#ifndef SAQL_STORAGE_WAL_H_
#define SAQL_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_block.h"
#include "core/result.h"
#include "storage/columnar_log.h"
#include "storage/file_backend.h"

namespace saql {

/// When an ingested event counts as durable — i.e. when the write-ahead
/// log fsyncs relative to the append that acks it.
enum class SyncMode : uint8_t {
  /// fsync before every ack. An acked event is never lost; slowest.
  kAlways,
  /// Appends ack immediately; a group barrier fsyncs once the open
  /// commit window reaches `max_delay` or `max_bytes`. Loss after a
  /// crash is bounded to the events of the open window.
  kGroupCommit,
  /// No WAL-side fsync at all; data becomes durable only at segment
  /// and close barriers. Fastest, widest loss window.
  kNone,
};

struct SyncPolicy {
  SyncMode mode = SyncMode::kGroupCommit;
  /// kGroupCommit: maximum age of an unsynced append before the
  /// background barrier fires.
  int64_t max_delay_us = 2000;
  /// kGroupCommit: unsynced bytes that force an immediate barrier.
  uint64_t max_bytes = 256 * 1024;

  static SyncPolicy Always() { return {SyncMode::kAlways, 0, 0}; }
  static SyncPolicy GroupCommit(int64_t max_delay_us = 2000,
                                uint64_t max_bytes = 256 * 1024) {
    return {SyncMode::kGroupCommit, max_delay_us, max_bytes};
  }
  static SyncPolicy None() { return {SyncMode::kNone, 0, 0}; }

  const char* name() const {
    switch (mode) {
      case SyncMode::kAlways: return "always";
      case SyncMode::kGroupCommit: return "group";
      case SyncMode::kNone: return "none";
    }
    return "?";
  }
};

/// Parses "always", "group", "group:<delay_us>:<bytes>", or "none" (the
/// shell's `--sync=` argument values).
Result<SyncPolicy> ParseSyncPolicy(const std::string& text);

/// Byte sizes of the WAL file header and of each record header.
inline constexpr size_t kWalFileHeaderSize = 20;
inline constexpr size_t kWalRecordHeaderSize = 24;

/// One WAL record: a chunk of `count` events with sequence numbers
/// `first_seq .. first_seq + count - 1`, encoded once. The same buffer is
/// written to the WAL, handed (moved) to the durable log's drainer, and
/// replayed by recovery.
struct WalRecord {
  uint64_t first_seq = 0;
  uint32_t count = 0;
  /// Record header + segment payload, exactly as on disk. The payload
  /// starts at offset `kWalRecordHeaderSize`, 8-aligned in the heap
  /// buffer, so its columns decode in place.
  std::string bytes;

  uint64_t last_seq() const { return first_seq + count - 1; }
};

/// Encodes the columnar block `block` as the record for sequence numbers
/// starting at `first_seq`, into `out` (reusing `out->bytes`' capacity).
void EncodeWalRecord(uint64_t first_seq, const EventBlock& block,
                     WalRecord* out);

/// Decodes `record`'s payload into `payload` and binds it into `block` as
/// a borrowed columnar block (aliasing `record.bytes` and `payload`'s
/// dictionary; both must outlive the binding). IoError when the payload
/// fails the segment decoder's bound checks.
Status BindWalRecord(const WalRecord& record, SegmentPayload* payload,
                     EventBlock* block);

/// Append-only write-ahead log of event chunks, the durability layer in
/// front of the columnar segment writer.
///
/// File format (little-endian):
///   header:  magic "SAQLWAL2", u32 version = 2, u64 first_seq
///   record:  u32 payload_size, u32 crc32, u64 first_seq, u32 count,
///            u32 dict_count, payload
///
/// The payload is the chunk encoded exactly like a v2 columnar segment
/// payload (storage/log_format.h: dictionary + aligned columns), so the
/// drainer merges it into segments without re-encoding rows and recovery
/// decodes it with the segment decoder. Records carry explicit sequence
/// numbers so recovery can line the WAL tail up against the columnar
/// segments (which hold seqs 1..events-in-segments by construction). One
/// CRC-32C covers first_seq, count, dict_count and the payload, so a torn
/// tail — power loss mid-append — is detected and discarded by the
/// reader rather than replayed as garbage; a CRC-valid record that fails
/// to decode is corruption.
class WalWriter {
 public:
  /// Creates/truncates `path`; records appended here start at
  /// `first_seq`. Check `status()` before use.
  WalWriter(const std::string& path, uint64_t first_seq,
            FileBackend* backend = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  Status status() const { return status_; }
  const std::string& path() const { return path_; }

  /// Appends `record` with one write. No fsync — call `Sync()` per the
  /// policy in force.
  Status Append(const WalRecord& record);

  /// Durability barrier over everything appended so far.
  Status Sync();

  /// Closes without deleting (the pipeline deletes WAL files only after
  /// their contents are durable in segments). Idempotent.
  Status Close();

  uint64_t bytes_written() const {
    return out_ != nullptr ? out_->bytes_written() : 0;
  }
  uint64_t records_written() const { return records_written_; }

 private:
  std::string path_;
  std::unique_ptr<WritableFile> out_;
  Status status_;
  uint64_t records_written_ = 0;
};

/// Reads the complete records of the WAL at `path`, in file order. A torn
/// record — short header, short payload, implausible length, or CRC
/// mismatch — ends the read at the last good record: the crash-consistent
/// torn-tail contract, not an error. A CRC-valid record whose payload
/// fails to decode (bad dictionary, codes, or count) is corruption:
/// IoError. `bytes_consumed` (optional) reports how far the valid prefix
/// ran.
Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       uint64_t* bytes_consumed = nullptr);

}  // namespace saql

#endif  // SAQL_STORAGE_WAL_H_
