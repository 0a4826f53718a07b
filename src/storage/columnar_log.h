#ifndef SAQL_STORAGE_COLUMNAR_LOG_H_
#define SAQL_STORAGE_COLUMNAR_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.h"
#include "core/event_block.h"
#include "core/result.h"
#include "storage/file_backend.h"
#include "storage/log_format.h"

namespace saql {

/// One decoded v2 segment payload (storage/log_format.h): column views and
/// dictionary spellings aliasing the payload bytes. Columnar segments, WAL
/// records and recovery share this codec.
struct SegmentPayload {
  EventBlock::Columns cols;
  /// Dictionary spellings; entry 0 is the implicit "".
  std::vector<std::string_view> dict;
  size_t count = 0;
};

/// Appends the segment payload of the columnar block `block` to `out`:
/// dictionary, then the aligned columns, padded to 8 bytes relative to
/// where the payload starts (which must itself be 8-aligned in `out` for
/// the columns to decode in place).
void EncodeSegmentPayload(const EventBlock& block, std::string* out);

/// Decodes a payload of `count` events and `dict_count` serialized
/// dictionary entries (excluding the implicit ""). `payload` must be
/// 8-aligned. Bound-checks the dictionary against `bytes`, the column
/// extent, enum values and every dictionary code: a violation is
/// corruption (IoError). `out` reuses its dictionary capacity.
Status DecodeSegmentPayload(const char* payload, uint64_t bytes,
                            uint32_t count, uint32_t dict_count,
                            SegmentPayload* out);

/// Writes an event log in the columnar v2 format (storage/log_format.h):
/// events are buffered into an owned `EventBlock` and flushed as
/// dictionary-compressed columnar segments of up to
/// `Options::segment_events` events, each with its own header (count,
/// min/max ts, CRC) so readers can seek by time range and recover from a
/// torn tail.
///
/// Crash semantics: the log survives a process kill up to the last
/// *completely written segment* (plus whatever the destructor-path `Close`
/// managed to flush). The destructor closes, but cannot report — call
/// `Close()` (or read `status()` afterwards) to observe flush failures.
class ColumnarLogWriter {
 public:
  struct Options {
    /// Events per segment. Larger segments amortize headers and widen
    /// dictionary sharing; smaller segments tighten time-range seeks.
    size_t segment_events = 4096;
    /// File layer (nullptr = real files). The durable-ingest pipeline and
    /// the deterministic fault-injection tests run the writer on an
    /// injected backend.
    FileBackend* backend = nullptr;
  };

  /// Creates/truncates `path`. Check `status()` before use.
  ColumnarLogWriter(const std::string& path, Options options);
  explicit ColumnarLogWriter(const std::string& path)
      : ColumnarLogWriter(path, Options()) {}

  /// Closes (flushing the pending partial segment); failures stay
  /// readable through `status()` on a still-live object.
  ~ColumnarLogWriter();

  ColumnarLogWriter(const ColumnarLogWriter&) = delete;
  ColumnarLogWriter& operator=(const ColumnarLogWriter&) = delete;

  Status status() const { return status_; }

  /// Appends one event to the pending segment.
  Status Append(const Event& event);

  /// Appends a batch.
  Status AppendBatch(const EventBatch& events);

  /// Writes `block` out. A columnar block of at least the segment
  /// threshold arriving on an empty pending segment is serialized directly
  /// as one segment; other columnar blocks merge column by column into the
  /// pending segment, which is cut at the threshold so segments stay full
  /// however small the blocks are. Row-backed blocks append row-wise.
  Status WriteBlock(EventBlock* block);

  /// Flushes the pending partial segment to the file.
  Status Flush();

  /// Durability barrier: fsyncs everything written so far. Does not
  /// flush the pending partial segment (call `Flush` first when the
  /// pending rows must be covered).
  Status Sync();

  /// Flushes and closes. Idempotent; later calls return the sticky
  /// status.
  Status Close();

  uint64_t events_written() const { return events_written_; }
  uint64_t segments_written() const { return segments_written_; }

 private:
  /// Encodes `rows[0..n)` into the pending segment, one `AppendRows`
  /// per stretch up to the segment threshold.
  Status AppendRows(const Event* rows, size_t n);

  /// Serializes one columnar block as a segment.
  Status WriteSegment(const EventBlock& block);

  /// Records `st` as the sticky status (first error wins) and returns it.
  Status SetStatus(Status st) {
    if (!st.ok() && status_.ok()) status_ = st;
    return st;
  }

  Options options_;
  std::unique_ptr<WritableFile> out_;
  Status status_;
  EventBlock pending_;
  std::string payload_;  ///< serialization scratch, reused per segment
  uint64_t events_written_ = 0;
  uint64_t segments_written_ = 0;
};

/// Reads a columnar v2 event log as zero-copy blocks. By default the file
/// is `mmap`ed and the blocks' column arrays alias the mapping directly
/// (`Options::use_mmap = false` reads segments into an owned buffer — the
/// ablation baseline and the fallback for filesystems without mmap).
///
/// On open the reader scans the segment headers into an index (offset,
/// count, min/max ts) without touching payloads; a truncated tail —
/// header cut short or payload extending past EOF — ends the index at the
/// last complete segment (the crash-consistent tail rule).
/// Payload CRCs are verified once per segment when it is first loaded;
/// a mismatch is corruption and fails the read.
///
/// The reader interns nothing: it knows no session's symbol table, so the
/// rows its blocks materialize fill their `Event::syms` memos on first
/// read, in whichever session they are pushed to.
class ColumnarLogReader {
 public:
  struct Options {
    /// Map the file and alias columns straight out of the mapping; off =
    /// buffered per-segment reads.
    bool use_mmap = true;
  };

  /// Opens `path` and builds the segment index; check `status()`.
  ColumnarLogReader(const std::string& path, Options options);
  explicit ColumnarLogReader(const std::string& path)
      : ColumnarLogReader(path, Options()) {}
  ~ColumnarLogReader();

  ColumnarLogReader(const ColumnarLogReader&) = delete;
  ColumnarLogReader& operator=(const ColumnarLogReader&) = delete;

  Status status() const { return status_; }

  bool mmap_active() const { return map_ != nullptr; }

  /// One entry per complete segment, in file order.
  struct SegmentInfo {
    uint64_t payload_offset = 0;  ///< file offset of the payload
    uint64_t payload_bytes = 0;
    uint32_t count = 0;
    uint32_t dict_count = 0;  ///< serialized entries (excl. implicit "")
    uint32_t crc32 = 0;
    Timestamp min_ts = 0;
    Timestamp max_ts = 0;
  };

  size_t num_segments() const { return index_.size(); }
  const SegmentInfo& segment(size_t i) const { return index_[i]; }

  /// Total events across all complete segments.
  uint64_t total_events() const { return total_events_; }

  /// Time-range seek: index of the first segment whose max_ts >= ts (==
  /// num_segments() when every segment ends before `ts`). Segments are in
  /// input order, which sources keep timestamp-ordered.
  size_t FirstSegmentAtOrAfter(Timestamp ts) const;

  /// Loads segment `i`: verifies the CRC (first load), decodes the
  /// dictionary, and bound-checks the code/enum columns. The
  /// loaded segment stays valid until the next Load or destruction.
  Status LoadSegment(size_t i);

  /// Index of the loaded segment, or num_segments() when none is loaded.
  size_t loaded_segment() const { return loaded_index_; }

  /// Binds `[offset, offset+count)` of the loaded segment into `block` —
  /// zero-copy column views plus the segment dictionary.
  void BindRange(EventBlock* block, size_t offset, size_t count);

  /// Convenience: loads segment `i` and binds it whole.
  Status ReadSegment(size_t i, EventBlock* block);

 private:
  Status BuildIndex();
  /// Returns the payload bytes of segment `i` (mapping alias or the
  /// owned buffer, filled by LoadSegment).
  const char* PayloadData(size_t i) const;

  Options options_;
  std::string path_;
  Status status_;

  // mmap backing (use_mmap) …
  const char* map_ = nullptr;
  size_t map_size_ = 0;
  // … or buffered backing.
  mutable std::ifstream in_;
  std::vector<char> payload_buf_;
  size_t file_size_ = 0;

  std::vector<SegmentInfo> index_;
  uint64_t total_events_ = 0;

  // Loaded-segment state.
  size_t loaded_index_;  // = SIZE_MAX sentinel until first load
  SegmentPayload loaded_;
  std::vector<bool> crc_checked_;
};

/// Convenience: writes `events` to `path` in the columnar v2 format.
Status WriteColumnarEventLog(
    const std::string& path, const EventBatch& events,
    ColumnarLogWriter::Options options = ColumnarLogWriter::Options());

/// Convenience: reads a whole v2 log into rows.
Result<EventBatch> ReadColumnarEventLog(const std::string& path);

}  // namespace saql

#endif  // SAQL_STORAGE_COLUMNAR_LOG_H_
