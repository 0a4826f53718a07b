#ifndef SAQL_CORE_EVENT_H_
#define SAQL_CORE_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/result.h"
#include "core/time_util.h"

namespace saql {

/// System entity categories from the paper's data model (§II-A): processes,
/// files, and network connections.
enum class EntityType : uint8_t {
  kProcess = 0,
  kFile = 1,
  kNetwork = 2,
};

/// Returns "proc" / "file" / "ip" — the spelling used in SAQL queries.
const char* EntityTypeName(EntityType type);

/// Parses the SAQL spelling ("proc", "file", "ip") of an entity type.
Result<EntityType> ParseEntityType(const std::string& name);

/// Kernel-level operations recorded between a subject process and an object
/// entity. The set covers the operations used by the paper's queries plus
/// the natural completions for each object category.
enum class EventOp : uint8_t {
  kRead = 0,     // file read, network receive-side read
  kWrite = 1,    // file write, network send-side write
  kStart = 2,    // process creation
  kExecute = 3,  // image execution (execve)
  kDelete = 4,   // file unlink
  kRename = 5,   // file rename
  kConnect = 6,  // outbound connection establishment
  kAccept = 7,   // inbound connection accepted
  kSend = 8,     // explicit network send
  kRecv = 9,     // explicit network receive
  kKill = 10,    // process termination by subject
  kChmod = 11,   // permission change
};

inline constexpr int kNumEventOps = 12;

/// Returns the SAQL spelling of an operation ("read", "start", ...).
const char* EventOpName(EventOp op);

/// Parses the SAQL spelling of an operation.
Result<EventOp> ParseEventOp(const std::string& name);

/// Bitmask over `EventOp` used by event patterns with alternation
/// (`read || write`).
using OpMask = uint32_t;

inline constexpr OpMask OpBit(EventOp op) {
  return OpMask{1} << static_cast<int>(op);
}
inline constexpr bool OpMaskContains(OpMask mask, EventOp op) {
  return (mask & OpBit(op)) != 0;
}

/// Renders an op mask as "read || write".
std::string OpMaskToString(OpMask mask);

/// A process entity. As subject it is the acting process; as object it is
/// the process being started/killed.
struct ProcessEntity {
  int64_t pid = 0;
  std::string exe_name;  ///< executable image name, e.g. "cmd.exe"
  std::string user;      ///< owning account, e.g. "SYSTEM", "alice"

  bool operator==(const ProcessEntity&) const = default;
};

/// A file entity identified by path; `name` in queries refers to the path.
struct FileEntity {
  std::string path;

  bool operator==(const FileEntity&) const = default;
};

/// A network connection entity (5-tuple minus subject-side identity).
struct NetworkEntity {
  std::string src_ip;
  std::string dst_ip;
  int64_t src_port = 0;
  int64_t dst_port = 0;
  std::string protocol = "tcp";

  bool operator==(const NetworkEntity&) const = default;
};

/// Interned symbol ids for an event's hot string attributes: a per-event
/// memo that the symbol readers (`GetEntitySymbol`, `GetEventSymbol` in
/// core/field_access) fill one slot at a time, on the first read of that
/// slot. A slot is 0 ("not interned") until some exact-equality predicate
/// compares its attribute by id; a slot no query compares is never
/// interned. Rows materialized from a columnar block arrive with an empty
/// memo and fill it like any other pushed event.
struct EventSymbols {
  uint32_t agent = 0;      ///< agent_id
  uint32_t subj_exe = 0;   ///< subject.exe_name
  uint32_t subj_user = 0;  ///< subject.user
  uint32_t obj_exe = 0;    ///< obj_proc.exe_name (process objects)
  uint32_t obj_user = 0;   ///< obj_proc.user (process objects)
  uint32_t obj_path = 0;   ///< obj_file.path (file objects)
  /// Generation of the table every non-zero slot was interned into; 0 =
  /// never interned. Every table, and every rotation of one, has its own
  /// generation, so a reader whose table's generation differs clears
  /// every slot before it fills its own: a buffer survives both an
  /// `Interner::Rotate` and a push to another session.
  uint32_t gen = 0;
};

/// One system monitoring event: the SVO triple 〈subject, operation, object〉
/// stamped with host and time, as collected by the (simulated) kernel
/// agents. Events are immutable once emitted into the stream.
///
/// Layout is hot-first: every field a pushed event is read through sits in
/// its first two 64-byte cache lines. Line 0 holds what the stream routing
/// loop (`ts`, `op`, `object_type`), the single-pattern matchers (`amount`,
/// `failed`), the symbol memo (`syms`) and the constraint index's `pid`
/// residual read; line 1 holds the subject's `exe_name` and `user` that
/// the exact-equality symbol reads intern. The host and the object
/// entities follow, cold. A new field goes below `subject` unless every
/// pushed event reads it.
struct alignas(64) Event {
  /// Monotonically increasing id assigned by the producing source.
  uint64_t id = 0;
  /// Event time (kernel timestamp), nanoseconds since epoch.
  Timestamp ts = 0;
  /// Data volume of the operation in bytes (read/write/send/recv), else 0.
  int64_t amount = 0;
  /// Operation performed by the subject on the object.
  EventOp op = EventOp::kRead;
  /// Which of the object fields below is populated.
  EntityType object_type = EntityType::kFile;
  /// True when the kernel reported the operation as failed.
  bool failed = false;
  /// Interned ids of the hot string attributes; 0 until first read.
  /// `mutable`: readers fill the memo through `const Event&`, so one event
  /// must not be read from two threads at once.
  mutable EventSymbols syms;
  /// Acting process.
  ProcessEntity subject;
  /// Host / data-collection agent identifier ("db-server-01").
  std::string agent_id;
  ProcessEntity obj_proc;
  FileEntity obj_file;
  NetworkEntity obj_net;

  /// Human-readable one-line rendering for logs and the CLI.
  std::string ToString() const;
};

// The hot-first layout, pinned: routing, the memo and the `pid` residual
// read line 0 only; the subject's strings end inside line 1.
static_assert(std::is_standard_layout_v<Event>);
static_assert(offsetof(Event, ts) + sizeof(Timestamp) <= 64);
static_assert(offsetof(Event, amount) + sizeof(int64_t) <= 64);
static_assert(offsetof(Event, op) < 64 && offsetof(Event, object_type) < 64 &&
              offsetof(Event, failed) < 64);
static_assert(offsetof(Event, syms) + sizeof(EventSymbols) <= 64);
static_assert(offsetof(Event, subject) + offsetof(ProcessEntity, pid) +
                  sizeof(int64_t) <=
              64);
static_assert(offsetof(Event, subject) + sizeof(ProcessEntity) <= 128);
// Whole lines: 384 bytes (six) with libstdc++'s 32-byte std::string.
static_assert(sizeof(Event) % 64 == 0);

/// Classification used by the paper: file / process / network events,
/// derived from the object type.
inline bool IsFileEvent(const Event& e) {
  return e.object_type == EntityType::kFile;
}
inline bool IsProcessEvent(const Event& e) {
  return e.object_type == EntityType::kProcess;
}
inline bool IsNetworkEvent(const Event& e) {
  return e.object_type == EntityType::kNetwork;
}

/// A batch of events; sources produce batches to amortize dispatch.
using EventBatch = std::vector<Event>;

}  // namespace saql

#endif  // SAQL_CORE_EVENT_H_
