#ifndef SAQL_CORE_FIELD_ACCESS_H_
#define SAQL_CORE_FIELD_ACCESS_H_

#include <cstdint>
#include <string>

#include "core/event.h"
#include "core/result.h"
#include "core/value.h"

namespace saql {

class Interner;

/// Which side of the SVO triple a variable is bound to. Entity variables in
/// SAQL queries (`p1`, `f1`, `i1`) bind to the subject or object of the
/// events they match; event aliases (`evt1`) bind to the whole event.
enum class EntityRole : uint8_t {
  kSubject = 0,
  kObject = 1,
};

/// Compiled identity of an event attribute. Field *names* are resolved to a
/// `FieldId` exactly once — during query analysis or constraint compilation
/// — so the per-event hot path reads attributes through a switch on a small
/// integer instead of string comparison chains.
///
/// Entity attributes (used with an `EntityRole`) come first; `kName` is the
/// polymorphic spelling that reads `exe_name` for processes and `path` for
/// files. Whole-event attributes and the `subject_*` / `object_*`
/// passthroughs follow.
enum class FieldId : uint8_t {
  kInvalid = 0,

  // Entity attributes.
  kExeName,   // process
  kPid,       // process
  kUser,      // process
  kPath,      // file
  kSrcIp,     // network
  kDstIp,     // network
  kSrcPort,   // network
  kDstPort,   // network
  kProtocol,  // network
  kName,      // polymorphic: process exe_name / file path

  // Whole-event attributes.
  kAmount,
  kTs,
  kAgentId,
  kOp,
  kFailed,
  kId,

  // Whole-event passthrough of subject attributes (subject is always a
  // process).
  kSubjectExeName,
  kSubjectPid,
  kSubjectUser,

  // Whole-event passthrough of object attributes; resolved against the
  // event's object type at read time.
  kObjectExeName,
  kObjectPid,
  kObjectUser,
  kObjectPath,
  kObjectName,
  kObjectSrcIp,
  kObjectDstIp,
  kObjectSrcPort,
  kObjectDstPort,
  kObjectProtocol,
};

/// Resolves an entity attribute spelling (including aliases such as
/// `image`, `dst_ip`, `port`) against `type`. Returns kInvalid for an
/// attribute the entity type does not have. Compile-time only.
FieldId ResolveEntityFieldId(EntityType type, const std::string& field);

/// Resolves a whole-event attribute spelling, including the `subject_*` and
/// `object_*` passthrough forms. Returns kInvalid when unknown.
FieldId ResolveEventFieldId(const std::string& field);

// ---------------------------------------------------------------------------
// Compiled fast path — zero string-keyed lookups.
// ---------------------------------------------------------------------------

/// Reads the entity attribute `id` of the entity playing `role`. Returns
/// NotFound when the event's entity type does not carry `id` (e.g. a file
/// object asked for kDstIp).
Result<Value> GetEntityField(const Event& event, EntityRole role, FieldId id);

/// Reads the whole-event attribute `id`.
Result<Value> GetEventField(const Event& event, FieldId id);

/// Zero-copy read of a string-typed entity attribute; nullptr when `id` is
/// not a string attribute of the entity playing `role` in this event.
const std::string* GetEntityStringFieldPtr(const Event& event,
                                           EntityRole role, FieldId id);

/// Zero-copy read of a string-typed whole-event attribute; nullptr when
/// `id` is not string-typed for this event. (`op` is excluded: its string
/// form is derived, not stored.)
const std::string* GetEventStringFieldPtr(const Event& event, FieldId id);

/// Interned symbol of a string-typed entity attribute in `interner`, or
/// Interner::kUnset (0) when the attribute carries no symbol for this
/// event (network strings, pids, a file object asked for kExeName).
/// Interns on first read: the attribute's `Event::syms` slot is the memo,
/// filled through `const Event&`, and `event.syms.gen` afterwards is
/// `interner.generation()`. A later read through the same table is a memo
/// hit; a read through another table, or after a rotation, refills it.
uint32_t GetEntitySymbol(Interner& interner, const Event& event,
                         EntityRole role, FieldId id);

/// Interned symbol of a string-typed whole-event attribute, or 0; interns
/// on first read like `GetEntitySymbol`.
uint32_t GetEventSymbol(Interner& interner, const Event& event, FieldId id);

// ---------------------------------------------------------------------------
// String-keyed path — compile time, diagnostics, and back-compat only.
// ---------------------------------------------------------------------------

/// Reads attribute `field` of the entity playing `role` in `event`.
///
/// Supported fields by entity type:
///  - proc: `exe_name` (alias `name`, `image`), `pid`, `user`
///  - file: `name` (alias `path`)
///  - ip:   `srcip`, `dstip` (alias `dst_ip`/`src_ip`), `sport`, `dport`,
///          `protocol`
///
/// Returns NotFound for an attribute the entity type does not have.
Result<Value> GetEntityField(const Event& event, EntityRole role,
                             const std::string& field);

/// Reads a whole-event attribute referenced through an event alias:
/// `amount`, `ts`, `agentid`, `op` (as string), `failed`, plus passthrough
/// of subject fields prefixed `subject_` and object fields `object_`.
Result<Value> GetEventField(const Event& event, const std::string& field);

/// Number of string-keyed GetEntityField/GetEventField calls since process
/// start (or the last reset). Analyzed queries must evaluate through the
/// FieldId fast path only; tests assert this counter stays flat across an
/// engine run.
uint64_t StringKeyedFieldLookups();
void ResetStringKeyedFieldLookups();

/// The field an entity variable denotes when used bare, mirroring the
/// paper's context-aware shortcut (`return p1` means `p1.exe_name`,
/// `f1` → `f1.name`, `i1` → `i1.dstip`).
const char* DefaultFieldForEntity(EntityType type);

/// True when `field` is a valid attribute name for `type`.
bool IsValidEntityField(EntityType type, const std::string& field);

/// True when `field` is a valid whole-event attribute name.
bool IsValidEventField(const std::string& field);

}  // namespace saql

#endif  // SAQL_CORE_FIELD_ACCESS_H_
