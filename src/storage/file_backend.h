#ifndef SAQL_STORAGE_FILE_BACKEND_H_
#define SAQL_STORAGE_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"

namespace saql {

/// One append-only file opened through a `FileBackend`. All storage
/// writers (WAL, columnar log) run on this seam instead of raw streams,
/// so crash and I/O-error behavior is testable
/// deterministically (`FaultInjectionFileBackend`) instead of via
/// platform fixtures like `/dev/full`.
///
/// Errors are sticky: after the first failed operation every later call
/// returns the same status, mirroring the writers' own contract.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `size` bytes at the end of the file.
  virtual Status Append(const void* data, size_t size) = 0;

  /// Durability barrier: everything appended so far reaches stable
  /// storage (fsync) before this returns OK.
  virtual Status Sync() = 0;

  /// Closes the file. Idempotent; returns the sticky status.
  virtual Status Close() = 0;

  virtual Status status() const = 0;

  /// Total bytes accepted by Append.
  virtual uint64_t bytes_written() const = 0;
};

/// Factory seam for the storage layer's file I/O. `Real()` is the
/// process-wide POSIX backend; tests inject `FaultInjectionFileBackend`
/// to script disk-full errors and crashes at exact byte offsets or named
/// trip points.
class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Creates (or truncates) `path` for appending.
  virtual Result<std::unique_ptr<WritableFile>> Create(
      const std::string& path) = 0;

  /// Removes `path`.
  virtual Status Delete(const std::string& path) = 0;

  /// Fault-injection hook called by storage code at semantically
  /// interesting points ("crash here" markers). No-op on the real
  /// backend.
  virtual void TripPoint(const char* name) { (void)name; }

  /// The process-wide POSIX-file backend.
  static FileBackend* Real();

  /// Resolves an injectable backend pointer: `backend` itself, or
  /// `Real()` when null (the convention every writer option follows).
  static FileBackend* OrReal(FileBackend* backend) {
    return backend != nullptr ? backend : Real();
  }
};

/// Deterministic fault injection over real files. Three fault schedules,
/// all usable together:
///
///  - `FailAppendsAfterBytes(n)`: appends fail with IoError once the
///    cumulative bytes appended across all files reach `n` — the
///    deterministic replacement for writing to `/dev/full`.
///  - `CrashAfterBytes(substr, n)`: simulated power loss the moment a
///    file whose path contains `substr` has had `n` bytes appended. The
///    triggering append is *torn*: its prefix up to the threshold is
///    kept on disk even though unsynced (page-cache reality), every
///    other file is truncated to its last-synced size, and all further
///    operations on the backend fail.
///  - `CrashAtTripPoint(name, occurrence)`: simulated power loss at the
///    `occurrence`-th hit of a named `TripPoint` in storage code. Every
///    file is truncated to its last-synced size (unsynced data lost).
///
/// After a crash the on-disk state is frozen exactly as a real crash
/// would leave it; recovery code then runs against the real filesystem.
class FaultInjectionFileBackend : public FileBackend {
 public:
  FaultInjectionFileBackend() = default;
  ~FaultInjectionFileBackend() override;

  Result<std::unique_ptr<WritableFile>> Create(
      const std::string& path) override;
  Status Delete(const std::string& path) override;
  void TripPoint(const char* name) override;

  /// Disk-full emulation: appends return IoError once cumulative bytes
  /// across all files reach `bytes` (0 = every append fails).
  void FailAppendsAfterBytes(uint64_t bytes);

  /// Schedules a torn-write crash: trips when a file whose path contains
  /// `path_substr` reaches `bytes` appended bytes.
  void CrashAfterBytes(const std::string& path_substr, uint64_t bytes);

  /// Schedules a crash at the `occurrence`-th hit of trip point `name`.
  void CrashAtTripPoint(const std::string& name, int occurrence = 1);

  bool crashed() const;

  /// Times trip point `name` was hit so far (for scheduling assertions).
  int trip_count(const std::string& name) const;

  /// Cumulative bytes appended across all files.
  uint64_t bytes_appended() const;

  // Internal: called by the wrapper files with `mu_` held. Public only
  // because the wrapper lives in the implementation file.
  struct FileState;
  Status AppendLocked(FileState* state, const void* data, size_t size);
  Status SyncLocked(FileState* state);

 private:

  /// Transitions to the crashed state: truncates every open file to its
  /// durable size (+ `torn` extra bytes for `torn_file`, the mid-append
  /// victim). Caller holds `mu_`.
  void CrashLocked(FileState* torn_file, uint64_t torn_keep);

  mutable std::mutex mu_;
  std::vector<FileState*> files_;
  std::unordered_map<std::string, int> trip_counts_;

  bool crashed_ = false;
  uint64_t total_appended_ = 0;
  uint64_t fail_after_bytes_ = UINT64_MAX;
  std::string crash_path_substr_;
  uint64_t crash_after_bytes_ = UINT64_MAX;
  std::string crash_trip_name_;
  int crash_trip_occurrence_ = 0;
};

}  // namespace saql

#endif  // SAQL_STORAGE_FILE_BACKEND_H_
