#include "storage/wal.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "storage/log_format.h"

namespace saql {

namespace {

constexpr char kWalMagic[8] = {'S', 'A', 'Q', 'L', 'W', 'A', 'L', '2'};
constexpr uint32_t kWalVersion = 2;
static_assert(kWalFileHeaderSize == sizeof(kWalMagic) + 4 + 8,
              "magic + u32 version + u64 first_seq");
/// Record header offsets: u32 payload_size, u32 crc32, then the
/// CRC-covered u64 first_seq, u32 count, u32 dict_count.
constexpr size_t kCrcOffset = 4;
constexpr size_t kCoveredOffset = 8;
constexpr size_t kCountOffset = 16;
constexpr size_t kDictCountOffset = 20;
/// Sanity bound on a record's payload: a larger length is a torn header.
constexpr uint32_t kMaxPayload = 64u << 20;

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Result<SyncPolicy> ParseSyncPolicy(const std::string& text) {
  if (text == "always") return SyncPolicy::Always();
  if (text == "none") return SyncPolicy::None();
  if (text == "group") return SyncPolicy::GroupCommit();
  // group:<delay_us>:<bytes>
  if (text.rfind("group:", 0) == 0) {
    const char* p = text.c_str() + 6;
    char* end = nullptr;
    long long delay = std::strtoll(p, &end, 10);
    if (end == p || delay < 0) {
      return Status::InvalidArgument("bad sync policy '" + text + "'");
    }
    uint64_t bytes = SyncPolicy().max_bytes;
    if (*end == ':') {
      const char* q = end + 1;
      long long b = std::strtoll(q, &end, 10);
      if (end == q || *end != '\0' || b <= 0) {
        return Status::InvalidArgument("bad sync policy '" + text + "'");
      }
      bytes = static_cast<uint64_t>(b);
    } else if (*end != '\0') {
      return Status::InvalidArgument("bad sync policy '" + text + "'");
    }
    return SyncPolicy::GroupCommit(delay, bytes);
  }
  return Status::InvalidArgument(
      "unknown sync policy '" + text +
      "' (expected always, group[:<delay_us>[:<bytes>]], or none)");
}

void EncodeWalRecord(uint64_t first_seq, const EventBlock& block,
                     WalRecord* out) {
  std::string& b = out->bytes;
  b.assign(kWalRecordHeaderSize, '\0');
  EncodeSegmentPayload(block, &b);
  const auto size = static_cast<uint32_t>(b.size() - kWalRecordHeaderSize);
  const auto count = static_cast<uint32_t>(block.size());
  const auto dict_count = static_cast<uint32_t>(block.dict_size() - 1);
  std::memcpy(b.data(), &size, sizeof(size));
  std::memcpy(b.data() + kCoveredOffset, &first_seq, sizeof(first_seq));
  std::memcpy(b.data() + kCountOffset, &count, sizeof(count));
  std::memcpy(b.data() + kDictCountOffset, &dict_count, sizeof(dict_count));
  const uint32_t crc =
      Crc32(b.data() + kCoveredOffset, b.size() - kCoveredOffset);
  std::memcpy(b.data() + kCrcOffset, &crc, sizeof(crc));
  out->first_seq = first_seq;
  out->count = count;
}

Status BindWalRecord(const WalRecord& record, SegmentPayload* payload,
                     EventBlock* block) {
  const char* b = record.bytes.data();
  SAQL_RETURN_IF_ERROR(DecodeSegmentPayload(
      b + kWalRecordHeaderSize, record.bytes.size() - kWalRecordHeaderSize,
      record.count, Load<uint32_t>(b + kDictCountOffset), payload));
  block->BindColumns(payload->cols, payload->count, payload->dict.data(),
                     payload->dict.size());
  return Status::Ok();
}

WalWriter::WalWriter(const std::string& path, uint64_t first_seq,
                     FileBackend* backend)
    : path_(path) {
  Result<std::unique_ptr<WritableFile>> file =
      FileBackend::OrReal(backend)->Create(path);
  if (!file.ok()) {
    status_ = file.status();
    return;
  }
  out_ = std::move(*file);
  char header[kWalFileHeaderSize];
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  std::memcpy(header + sizeof(kWalMagic), &kWalVersion, sizeof(kWalVersion));
  std::memcpy(header + sizeof(kWalMagic) + sizeof(kWalVersion), &first_seq,
              sizeof(first_seq));
  status_ = out_->Append(header, sizeof(header));
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Append(const WalRecord& record) {
  SAQL_RETURN_IF_ERROR(status_);
  status_ = out_->Append(record.bytes.data(), record.bytes.size());
  SAQL_RETURN_IF_ERROR(status_);
  ++records_written_;
  return Status::Ok();
}

Status WalWriter::Sync() {
  SAQL_RETURN_IF_ERROR(status_);
  status_ = out_->Sync();
  return status_;
}

Status WalWriter::Close() {
  if (out_ != nullptr) {
    Status st = out_->Close();
    if (!st.ok() && status_.ok()) status_ = st;
    out_.reset();
  }
  return status_;
}

Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       uint64_t* bytes_consumed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  char header[kWalFileHeaderSize];
  in.read(header, sizeof(header));
  if (!in || std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IoError("'" + path + "' is not a SAQL WAL file");
  }
  const auto version = Load<uint32_t>(header + sizeof(kWalMagic));
  if (version != kWalVersion) {
    return Status::IoError("unsupported WAL version " +
                           std::to_string(version));
  }

  std::vector<WalRecord> records;
  uint64_t consumed = kWalFileHeaderSize;
  SegmentPayload decoded;
  while (true) {
    char rec_header[kWalRecordHeaderSize];
    in.read(rec_header, sizeof(rec_header));
    if (!in) break;  // torn tail: short record header
    const auto size = Load<uint32_t>(rec_header);
    if (size > kMaxPayload) break;  // torn tail: implausible length
    WalRecord r;
    r.bytes.resize(kWalRecordHeaderSize + size);
    std::memcpy(r.bytes.data(), rec_header, sizeof(rec_header));
    in.read(r.bytes.data() + kWalRecordHeaderSize, size);
    if (!in) break;  // torn tail: short payload
    if (Crc32(r.bytes.data() + kCoveredOffset,
              r.bytes.size() - kCoveredOffset) !=
        Load<uint32_t>(rec_header + kCrcOffset)) {
      break;  // torn tail
    }
    // Past the CRC the bytes are what the writer wrote: a record that
    // does not decode is corruption, never a crash artifact.
    r.first_seq = Load<uint64_t>(rec_header + kCoveredOffset);
    r.count = Load<uint32_t>(rec_header + kCountOffset);
    Status st = r.count == 0
                    ? Status::IoError("empty record")
                    : DecodeSegmentPayload(
                          r.bytes.data() + kWalRecordHeaderSize, size,
                          r.count, Load<uint32_t>(rec_header + kDictCountOffset),
                          &decoded);
    if (!st.ok()) {
      return Status::IoError("corrupt WAL record at offset " +
                             std::to_string(consumed) + " of '" + path +
                             "': " + st.message());
    }
    records.push_back(std::move(r));
    consumed += kWalRecordHeaderSize + size;
  }
  if (bytes_consumed != nullptr) *bytes_consumed = consumed;
  return records;
}

}  // namespace saql
