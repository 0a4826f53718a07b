#include "storage/recovery.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "storage/columnar_log.h"
#include "storage/log_format.h"
#include "storage/wal.h"

namespace saql {

namespace {

/// Splits `path` into (directory, basename); directory is "." for bare
/// names.
void SplitPath(const std::string& path, std::string* dir,
               std::string* base) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *base = path;
  } else {
    *dir = path.substr(0, slash);
    *base = path.substr(slash + 1);
  }
}

/// Size of `path`, or 0 when it does not exist.
uint64_t FileSize(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

Result<std::vector<std::string>> FindWalFiles(const std::string& path) {
  std::string dir, base;
  SplitPath(path, &dir, &base);
  const std::string prefix = base + ".wal.";

  std::vector<std::pair<uint64_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot scan directory '" + dir +
                           "' for WAL files");
  }
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind(prefix, 0) != 0) continue;
    std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoull(suffix), dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());

  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [index, p] : found) paths.push_back(std::move(p));
  return paths;
}

Result<RecoveredLog> RecoverDurableLog(const std::string& path) {
  RecoveredLog out;

  // Tier 1: the complete columnar segments. A crash can leave the log
  // file with a torn final segment (the v2 reader's tail rule drops it)
  // or even a torn 16-byte file header (then nothing made it into
  // segments at all).
  if (FileSize(path) >= kV2FileHeaderSize) {
    SAQL_ASSIGN_OR_RETURN(out.events, ReadColumnarEventLog(path));
    out.segment_events = out.events.size();
  }

  // Tier 2: WAL tail replay. Segments hold seqs 1..segment_events (the
  // drainer writes in sequence order), so replay picks up from there.
  SAQL_ASSIGN_OR_RETURN(out.wal_files, FindWalFiles(path));
  uint64_t max_seq = out.segment_events;
  SegmentPayload payload;
  EventBlock block;
  for (const std::string& wal : out.wal_files) {
    // A file torn inside its own header (crash during rotation) holds
    // no records by construction.
    if (FileSize(wal) < kWalFileHeaderSize) continue;
    SAQL_ASSIGN_OR_RETURN(std::vector<WalRecord> records, ReadWal(wal));
    for (const WalRecord& r : records) {
      if (r.last_seq() <= max_seq) continue;  // already durable in segments
      if (r.first_seq > max_seq + 1) {
        return Status::IoError(
            "gap in WAL replay at '" + wal + "': have seq " +
            std::to_string(max_seq) + ", next surviving record starts at " +
            "seq " + std::to_string(r.first_seq));
      }
      // Segments are cut at event counts, not chunk boundaries: a record
      // may straddle the last segment, so replay only its suffix.
      SAQL_RETURN_IF_ERROR(BindWalRecord(r, &payload, &block));
      const Event* rows = block.MutableRows();
      const uint64_t skip = max_seq + 1 - r.first_seq;
      out.events.insert(out.events.end(), rows + skip, rows + r.count);
      out.wal_events += r.count - skip;
      max_seq = r.last_seq();
    }
  }
  return out;
}

Result<RecoveredLog> CompactRecoveredLog(const std::string& path) {
  SAQL_ASSIGN_OR_RETURN(RecoveredLog rec, RecoverDurableLog(path));

  // Rewrite as a pure v2 log via a temp file so a crash mid-compaction
  // never destroys the recoverable state.
  const std::string tmp = path + ".compact.tmp";
  {
    ColumnarLogWriter writer(tmp);
    SAQL_RETURN_IF_ERROR(writer.status());
    SAQL_RETURN_IF_ERROR(writer.AppendBatch(rec.events));
    SAQL_RETURN_IF_ERROR(writer.Flush());
    SAQL_RETURN_IF_ERROR(writer.Sync());
    SAQL_RETURN_IF_ERROR(writer.Close());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot move compacted log over '" + path +
                           "'");
  }
  for (const std::string& wal : rec.wal_files) ::unlink(wal.c_str());
  return rec;
}

}  // namespace saql
