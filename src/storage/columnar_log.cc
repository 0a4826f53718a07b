#include "storage/columnar_log.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>


namespace saql {

namespace {

constexpr size_t kSentinelNone = static_cast<size_t>(-1);

/// Per-event bytes of the fixed-width column section.
constexpr size_t ColumnBytesPerEvent() {
  return 7 * sizeof(int64_t) + 9 * sizeof(uint32_t) + 3 * sizeof(uint8_t);
}

}  // namespace

// ---------------------------------------------------------------------------
// Segment payload codec.
// ---------------------------------------------------------------------------

void EncodeSegmentPayload(const EventBlock& block, std::string* out) {
  const size_t n = block.size();
  const EventBlock::Columns& c = block.columns();

  // Size the payload first and fill it through a cursor: one resize
  // instead of an append per column and dictionary entry.
  size_t dict_bytes = 0;
  for (size_t i = 1; i < block.dict_size(); ++i) {
    dict_bytes += sizeof(uint32_t) + block.dict()[i].size();
  }
  const size_t base = out->size();
  out->resize(base + AlignTo8(dict_bytes) +
              AlignTo8(n * ColumnBytesPerEvent()),
              '\0');
  char* p = out->data() + base;
  auto put = [&p](const void* data, size_t size) {
    std::memcpy(p, data, size);
    p += size;
  };
  // A one-event block (a per-event append) copies fixed-size cells the
  // compiler inlines instead of calling memcpy per column.
  auto put_col = [&p, n](const auto* col) {
    constexpr size_t kWidth = sizeof(*col);
    if (n == 1) {
      std::memcpy(p, col, kWidth);
    } else {
      std::memcpy(p, col, n * kWidth);
    }
    p += n * kWidth;
  };
  // Dictionary: entry 0 ("") is implicit.
  for (size_t i = 1; i < block.dict_size(); ++i) {
    std::string_view s = block.dict()[i];
    const auto len = static_cast<uint32_t>(s.size());
    put(&len, sizeof(len));
    put(s.data(), s.size());
  }
  p = out->data() + base + AlignTo8(dict_bytes);
  // Columns, widest first (log_format.h fixes the order).
  put_col(c.id);
  put_col(c.ts);
  put_col(c.subj_pid);
  put_col(c.obj_pid);
  put_col(c.src_port);
  put_col(c.dst_port);
  put_col(c.amount);
  put_col(c.agent);
  put_col(c.subj_exe);
  put_col(c.subj_user);
  put_col(c.obj_exe);
  put_col(c.obj_user);
  put_col(c.obj_path);
  put_col(c.src_ip);
  put_col(c.dst_ip);
  put_col(c.protocol);
  put_col(c.op);
  put_col(c.object_type);
  put_col(c.failed);
}

Status DecodeSegmentPayload(const char* payload, uint64_t bytes,
                            uint32_t count, uint32_t dict_count,
                            SegmentPayload* out) {
  // Dictionary: dict_count entries of u32 length + bytes.
  out->dict.clear();
  out->dict.push_back(std::string_view{});  // code 0 = ""
  uint64_t pos = 0;
  for (uint32_t d = 0; d < dict_count; ++d) {
    uint32_t len = 0;
    if (pos + sizeof(len) > bytes) {
      return Status::IoError("corrupt segment dictionary");
    }
    std::memcpy(&len, payload + pos, sizeof(len));
    pos += sizeof(len);
    if (len > bytes - pos) {
      return Status::IoError("corrupt segment dictionary");
    }
    out->dict.emplace_back(payload + pos, len);
    pos += len;
  }
  pos = AlignTo8(pos);

  // Columns at fixed offsets after the dictionary.
  const size_t n = count;
  if (pos > bytes || n * ColumnBytesPerEvent() > bytes - pos) {
    return Status::IoError("corrupt segment (columns truncated)");
  }
  auto take_i64 = [&](const int64_t** col) {
    *col = reinterpret_cast<const int64_t*>(payload + pos);
    pos += n * sizeof(int64_t);
  };
  auto take_u32 = [&](const uint32_t** col) {
    *col = reinterpret_cast<const uint32_t*>(payload + pos);
    pos += n * sizeof(uint32_t);
  };
  auto take_u8 = [&](const uint8_t** col) {
    *col = reinterpret_cast<const uint8_t*>(payload + pos);
    pos += n * sizeof(uint8_t);
  };
  EventBlock::Columns& c = out->cols;
  c.id = reinterpret_cast<const uint64_t*>(payload + pos);
  pos += n * sizeof(uint64_t);
  take_i64(&c.ts);
  take_i64(&c.subj_pid);
  take_i64(&c.obj_pid);
  take_i64(&c.src_port);
  take_i64(&c.dst_port);
  take_i64(&c.amount);
  take_u32(&c.agent);
  take_u32(&c.subj_exe);
  take_u32(&c.subj_user);
  take_u32(&c.obj_exe);
  take_u32(&c.obj_user);
  take_u32(&c.obj_path);
  take_u32(&c.src_ip);
  take_u32(&c.dst_ip);
  take_u32(&c.protocol);
  take_u8(&c.op);
  take_u8(&c.object_type);
  take_u8(&c.failed);
  out->count = n;

  // Bound-check enums and dictionary codes once per payload, so
  // materialization can index without per-cell checks. Max-reduce then
  // one compare per column: branch-free inner loops the compiler
  // vectorizes.
  uint8_t max_op = 0, max_type = 0;
  for (size_t r = 0; r < n; ++r) {
    max_op = std::max(max_op, c.op[r]);
    max_type = std::max(max_type, c.object_type[r]);
  }
  if (max_op >= kNumEventOps || max_type > 2) {
    return Status::IoError("corrupt segment (bad enum value)");
  }
  const uint32_t dict_total = static_cast<uint32_t>(out->dict.size());
  const uint32_t* code_cols[] = {c.agent,    c.subj_exe, c.subj_user,
                                 c.obj_exe,  c.obj_user, c.obj_path,
                                 c.src_ip,   c.dst_ip,   c.protocol};
  for (const uint32_t* col : code_cols) {
    uint32_t max_code = 0;
    for (size_t r = 0; r < n; ++r) max_code = std::max(max_code, col[r]);
    if (max_code >= dict_total) {
      return Status::IoError(
          "corrupt segment (dictionary code out of range)");
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

ColumnarLogWriter::ColumnarLogWriter(const std::string& path, Options options)
    : options_(options) {
  if (options_.segment_events == 0) options_.segment_events = 4096;
  Result<std::unique_ptr<WritableFile>> file =
      FileBackend::OrReal(options_.backend)->Create(path);
  if (!file.ok()) {
    status_ = file.status();
    return;
  }
  out_ = std::move(*file);
  char header[kV2FileHeaderSize] = {};  // magic, u32 version, u32 reserved
  std::memcpy(header, kLogMagicV2, sizeof(kLogMagicV2));
  std::memcpy(header + sizeof(kLogMagicV2), &kLogVersionV2,
              sizeof(kLogVersionV2));
  status_ = out_->Append(header, sizeof(header));
}

ColumnarLogWriter::~ColumnarLogWriter() { Close(); }

Status ColumnarLogWriter::Append(const Event& event) {
  return AppendRows(&event, 1);
}

Status ColumnarLogWriter::AppendBatch(const EventBatch& events) {
  return AppendRows(events.data(), events.size());
}

Status ColumnarLogWriter::AppendRows(const Event* rows, size_t n) {
  for (size_t done = 0; done < n;) {
    SAQL_RETURN_IF_ERROR(status_);
    const size_t take =
        std::min(n - done, options_.segment_events - pending_.size());
    pending_.AppendRows(rows + done, take);
    done += take;
    if (pending_.size() >= options_.segment_events) {
      SAQL_RETURN_IF_ERROR(Flush());
    }
  }
  return Status::Ok();
}

Status ColumnarLogWriter::WriteBlock(EventBlock* block) {
  SAQL_RETURN_IF_ERROR(status_);
  const size_t n = block->size();
  if (n == 0) return Status::Ok();
  if (!block->columnar()) return AppendRows(block->MutableRows(), n);
  if (pending_.empty() && n >= options_.segment_events) {
    SAQL_RETURN_IF_ERROR(WriteSegment(*block));
    events_written_ += n;
    return Status::Ok();
  }
  for (size_t done = 0; done < n;) {
    const size_t take =
        std::min(n - done, options_.segment_events - pending_.size());
    pending_.AppendColumns(*block, done, take);
    done += take;
    if (pending_.size() >= options_.segment_events) {
      SAQL_RETURN_IF_ERROR(Flush());
    }
  }
  return Status::Ok();
}

Status ColumnarLogWriter::Flush() {
  SAQL_RETURN_IF_ERROR(status_);
  if (pending_.empty()) return Status::Ok();
  Status st = WriteSegment(pending_);
  if (st.ok()) events_written_ += pending_.size();
  pending_.Clear();
  return st;
}

Status ColumnarLogWriter::WriteSegment(const EventBlock& block) {
  payload_.clear();
  EncodeSegmentPayload(block, &payload_);

  SegmentHeader header;
  header.payload_bytes = payload_.size();
  header.event_count = static_cast<uint32_t>(block.size());
  block.TsBounds(&header.min_ts, &header.max_ts);
  header.dict_count = static_cast<uint32_t>(block.dict_size() - 1);
  header.crc32 = Crc32(payload_.data(), payload_.size());

  SAQL_RETURN_IF_ERROR(SetStatus(out_->Append(&header, sizeof(header))));
  SAQL_RETURN_IF_ERROR(SetStatus(out_->Append(payload_.data(),
                                              payload_.size())));
  ++segments_written_;
  return Status::Ok();
}

Status ColumnarLogWriter::Sync() {
  SAQL_RETURN_IF_ERROR(status_);
  return SetStatus(out_->Sync());
}

Status ColumnarLogWriter::Close() {
  if (out_ != nullptr) {
    Flush();
    Status st = out_->Close();
    if (!st.ok() && status_.ok()) status_ = st;
    out_.reset();
  }
  return status_;
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

ColumnarLogReader::ColumnarLogReader(const std::string& path, Options options)
    : options_(options), path_(path), loaded_index_(kSentinelNone) {
  if (options_.use_mmap) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      status_ = Status::IoError("cannot open '" + path + "' for reading");
      return;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      status_ = Status::IoError("cannot stat '" + path + "'");
      return;
    }
    file_size_ = static_cast<size_t>(st.st_size);
    if (file_size_ > 0) {
      void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        // mmap-hostile filesystem: degrade to buffered reads.
        options_.use_mmap = false;
      } else {
        map_ = static_cast<const char*>(map);
        map_size_ = file_size_;
      }
    }
    ::close(fd);
  }
  if (map_ == nullptr) {
    in_.open(path, std::ios::binary);
    if (!in_) {
      status_ = Status::IoError("cannot open '" + path + "' for reading");
      return;
    }
    in_.seekg(0, std::ios::end);
    file_size_ = static_cast<size_t>(in_.tellg());
    in_.seekg(0);
  }
  status_ = BuildIndex();
}

ColumnarLogReader::~ColumnarLogReader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
  }
}

Status ColumnarLogReader::BuildIndex() {
  char file_header[kV2FileHeaderSize];
  if (file_size_ < sizeof(file_header)) {
    return Status::IoError("'" + path_ + "' is not a SAQL v2 event log");
  }
  if (map_ != nullptr) {
    std::memcpy(file_header, map_, sizeof(file_header));
  } else {
    in_.read(file_header, sizeof(file_header));
    if (!in_) return Status::IoError("failed reading log header");
  }
  uint32_t version = 0;
  std::memcpy(&version, file_header + sizeof(kLogMagicV2), sizeof(version));
  if (std::memcmp(file_header, kLogMagicV2, sizeof(kLogMagicV2)) != 0) {
    return Status::IoError("'" + path_ + "' is not a SAQL v2 event log");
  }
  if (version != kLogVersionV2) {
    return Status::IoError("unsupported columnar log version " +
                           std::to_string(version));
  }

  uint64_t offset = kV2FileHeaderSize;
  while (offset + sizeof(SegmentHeader) <= file_size_) {
    SegmentHeader header;
    if (map_ != nullptr) {
      std::memcpy(&header, map_ + offset, sizeof(header));
    } else {
      in_.seekg(static_cast<std::streamoff>(offset));
      in_.read(reinterpret_cast<char*>(&header), sizeof(header));
      if (!in_) break;  // short read at the tail
    }
    if (header.magic != kSegmentMagic) {
      return Status::IoError("corrupt segment header at offset " +
                             std::to_string(offset));
    }
    uint64_t payload_offset = offset + sizeof(SegmentHeader);
    if (header.payload_bytes >
            static_cast<uint64_t>(file_size_) - payload_offset ||
        header.payload_bytes <
            header.event_count * ColumnBytesPerEvent()) {
      // Payload extends past EOF (or is impossibly small for its event
      // count): the writer was cut off mid-segment. Crash-consistent
      // tail — keep everything before it.
      break;
    }
    SegmentInfo info;
    info.payload_offset = payload_offset;
    info.payload_bytes = header.payload_bytes;
    info.count = header.event_count;
    info.dict_count = header.dict_count;
    info.crc32 = header.crc32;
    info.min_ts = header.min_ts;
    info.max_ts = header.max_ts;
    index_.push_back(info);
    total_events_ += header.event_count;
    offset = payload_offset + header.payload_bytes;
  }
  crc_checked_.assign(index_.size(), false);
  return Status::Ok();
}

size_t ColumnarLogReader::FirstSegmentAtOrAfter(Timestamp ts) const {
  size_t i = 0;
  while (i < index_.size() && index_[i].max_ts < ts) ++i;
  return i;
}

const char* ColumnarLogReader::PayloadData(size_t i) const {
  if (map_ != nullptr) return map_ + index_[i].payload_offset;
  return payload_buf_.data();
}

Status ColumnarLogReader::LoadSegment(size_t i) {
  SAQL_RETURN_IF_ERROR(status_);
  if (i >= index_.size()) {
    return Status::InvalidArgument("segment index out of range");
  }
  if (loaded_index_ == i) return Status::Ok();
  const SegmentInfo& info = index_[i];

  if (map_ == nullptr) {
    payload_buf_.resize(info.payload_bytes);
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(info.payload_offset));
    in_.read(payload_buf_.data(),
             static_cast<std::streamsize>(info.payload_bytes));
    if (!in_) {
      status_ = Status::IoError("failed reading segment payload");
      return status_;
    }
  }
  const char* payload = PayloadData(i);

  if (!crc_checked_[i]) {
    if (Crc32(payload, info.payload_bytes) != info.crc32) {
      status_ = Status::IoError("corrupt segment (CRC mismatch) at offset " +
                                std::to_string(info.payload_offset));
      return status_;
    }
    crc_checked_[i] = true;
  }

  status_ = DecodeSegmentPayload(payload, info.payload_bytes, info.count,
                                 info.dict_count, &loaded_);
  SAQL_RETURN_IF_ERROR(status_);
  loaded_index_ = i;
  return Status::Ok();
}

void ColumnarLogReader::BindRange(EventBlock* block, size_t offset,
                                  size_t count) {
  block->BindColumns(loaded_.cols.Slice(offset), count, loaded_.dict.data(),
                     loaded_.dict.size());
}

Status ColumnarLogReader::ReadSegment(size_t i, EventBlock* block) {
  SAQL_RETURN_IF_ERROR(LoadSegment(i));
  BindRange(block, 0, index_[i].count);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Convenience round trips.
// ---------------------------------------------------------------------------

Status WriteColumnarEventLog(const std::string& path, const EventBatch& events,
                             ColumnarLogWriter::Options options) {
  ColumnarLogWriter writer(path, options);
  SAQL_RETURN_IF_ERROR(writer.status());
  SAQL_RETURN_IF_ERROR(writer.AppendBatch(events));
  return writer.Close();
}

Result<EventBatch> ReadColumnarEventLog(const std::string& path) {
  ColumnarLogReader reader(path);
  SAQL_RETURN_IF_ERROR(reader.status());
  EventBatch out;
  out.reserve(reader.total_events());
  EventBlock block;
  for (size_t i = 0; i < reader.num_segments(); ++i) {
    SAQL_RETURN_IF_ERROR(reader.ReadSegment(i, &block));
    const Event* rows = block.MutableRows();
    out.insert(out.end(), rows, rows + block.size());
  }
  return out;
}

}  // namespace saql
