#ifndef SAQL_STORAGE_LOG_FORMAT_H_
#define SAQL_STORAGE_LOG_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace saql {

// On-disk event-log format (little-endian):
//
//  v2 ("SAQLLOG2"): columnar segments — the batch-native format behind
//    `ColumnarLogWriter` / `ColumnarLogReader` (storage/columnar_log.h):
//
//    file header (16 B): magic "SAQLLOG2", u32 version = 2, u32 reserved
//    segment*:
//      segment header (40 B, 8-aligned): SegmentHeader below
//      payload (crc-protected, padded to 8 B):
//        dictionary: dict_count entries of u32 length + bytes (entry 0,
//          the empty string, is implicit and not serialized), padded to 8
//        columns, contiguous, in fixed order (widest first, so every
//          column is naturally aligned inside the 8-aligned payload):
//            u64 id[n]
//            i64 ts[n], subj_pid[n], obj_pid[n], src_port[n],
//                dst_port[n], amount[n]
//            u32 agent[n], subj_exe[n], subj_user[n], obj_exe[n],
//                obj_user[n], obj_path[n], src_ip[n], dst_ip[n],
//                protocol[n]            — dictionary offsets ("compressed
//                                         offsets": strings stored once
//                                         in the dictionary, per-event
//                                         cells are 4-byte codes)
//            u8  op[n], object_type[n], failed[n]
//
//    Writers emit whole segments, so a crash truncates the file inside at
//    most one segment; readers bound-check each segment against the file
//    and stop at the first incomplete one (crash-consistent tail). A
//    bounds-complete segment whose CRC fails is corruption, not
//    truncation → IoError.
//
//    The segment payload is also the write-ahead log's record body
//    (storage/wal.h): one codec for segments, WAL records and recovery.

inline constexpr char kLogMagicV2[8] = {'S', 'A', 'Q', 'L',
                                        'L', 'O', 'G', '2'};
inline constexpr uint32_t kLogVersionV2 = 2;
inline constexpr size_t kV2FileHeaderSize = 16;
inline constexpr uint32_t kSegmentMagic = 0x32474553;  // "SEG2"

/// Fixed-layout v2 segment header; memcpy-safe (no padding, 8-aligned).
struct SegmentHeader {
  uint64_t payload_bytes = 0;  ///< payload size incl. trailing pad
  uint32_t magic = kSegmentMagic;
  uint32_t event_count = 0;
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  uint32_t dict_count = 0;  ///< serialized entries (excl. implicit "")
  uint32_t crc32 = 0;       ///< CRC-32C (Castagnoli) of the payload
};
static_assert(sizeof(SegmentHeader) == 40, "segment header layout");

/// CRC-32C (Castagnoli polynomial, reflected — the storage-format CRC
/// with hardware support) over `data`. Uses the SSE4.2 crc32 instruction
/// when the CPU has it (checksumming is on the replay hot path: every
/// segment is verified once per load), slicing-by-8 tables otherwise.
uint32_t Crc32(const void* data, size_t size);

/// Rounds `n` up to the next multiple of 8 (payload/section alignment).
inline constexpr size_t AlignTo8(size_t n) { return (n + 7) & ~size_t{7}; }

}  // namespace saql

#endif  // SAQL_STORAGE_LOG_FORMAT_H_
