#include "core/field_access.h"

#include <atomic>

#include "core/interner.h"
#include "core/string_util.h"

namespace saql {

namespace {

std::atomic<uint64_t> g_string_keyed_lookups{0};

Status NoEntityAttr(EntityType type, const std::string& field) {
  const char* kind = "process";
  switch (type) {
    case EntityType::kProcess:
      kind = "process";
      break;
    case EntityType::kFile:
      kind = "file";
      break;
    case EntityType::kNetwork:
      kind = "network";
      break;
  }
  return Status::NotFound(std::string(kind) + " entity has no attribute '" +
                          field + "'");
}

FieldId ResolveProcessField(const std::string& f) {
  if (f == "exe_name" || f == "name" || f == "image") return FieldId::kExeName;
  if (f == "pid") return FieldId::kPid;
  if (f == "user") return FieldId::kUser;
  return FieldId::kInvalid;
}

FieldId ResolveFileField(const std::string& f) {
  if (f == "name" || f == "path") return FieldId::kPath;
  return FieldId::kInvalid;
}

FieldId ResolveNetworkField(const std::string& f) {
  if (f == "srcip" || f == "src_ip" || f == "sip") return FieldId::kSrcIp;
  if (f == "dstip" || f == "dst_ip" || f == "dip") return FieldId::kDstIp;
  if (f == "sport" || f == "src_port") return FieldId::kSrcPort;
  if (f == "dport" || f == "dst_port" || f == "port") return FieldId::kDstPort;
  if (f == "protocol" || f == "proto") return FieldId::kProtocol;
  return FieldId::kInvalid;
}

/// The entity this event exposes for `role`: the subject process, or the
/// object selected by object_type. Returns the specific sub-entity pointers
/// through out-params to keep the accessors below branch-light.
const ProcessEntity* ProcOf(const Event& e, EntityRole role) {
  if (role == EntityRole::kSubject) return &e.subject;
  return e.object_type == EntityType::kProcess ? &e.obj_proc : nullptr;
}

const FileEntity* FileOf(const Event& e, EntityRole role) {
  if (role == EntityRole::kObject && e.object_type == EntityType::kFile) {
    return &e.obj_file;
  }
  return nullptr;
}

const NetworkEntity* NetOf(const Event& e, EntityRole role) {
  if (role == EntityRole::kObject && e.object_type == EntityType::kNetwork) {
    return &e.obj_net;
  }
  return nullptr;
}

EntityType TypeOf(const Event& e, EntityRole role) {
  return role == EntityRole::kSubject ? EntityType::kProcess : e.object_type;
}

}  // namespace

FieldId ResolveEntityFieldId(EntityType type, const std::string& field) {
  std::string f = ToLower(field);
  switch (type) {
    case EntityType::kProcess:
      return ResolveProcessField(f);
    case EntityType::kFile:
      return ResolveFileField(f);
    case EntityType::kNetwork:
      return ResolveNetworkField(f);
  }
  return FieldId::kInvalid;
}

FieldId ResolveEventFieldId(const std::string& field) {
  std::string f = ToLower(field);
  if (f == "amount") return FieldId::kAmount;
  if (f == "ts" || f == "time" || f == "timestamp") return FieldId::kTs;
  if (f == "agentid" || f == "agent_id" || f == "host") {
    return FieldId::kAgentId;
  }
  if (f == "op" || f == "operation") return FieldId::kOp;
  if (f == "failed") return FieldId::kFailed;
  if (f == "id") return FieldId::kId;
  if (StartsWith(f, "subject_")) {
    switch (ResolveProcessField(f.substr(8))) {
      case FieldId::kExeName:
        return FieldId::kSubjectExeName;
      case FieldId::kPid:
        return FieldId::kSubjectPid;
      case FieldId::kUser:
        return FieldId::kSubjectUser;
      default:
        return FieldId::kInvalid;
    }
  }
  if (StartsWith(f, "object_")) {
    std::string rest = f.substr(7);
    // The object's type is unknown until the event arrives, so any entity
    // attribute spelling is accepted; reads resolve per event. `name` stays
    // polymorphic, exact spellings pin the entity kind.
    switch (ResolveProcessField(rest)) {
      case FieldId::kExeName:
        return rest == "name" ? FieldId::kObjectName : FieldId::kObjectExeName;
      case FieldId::kPid:
        return FieldId::kObjectPid;
      case FieldId::kUser:
        return FieldId::kObjectUser;
      default:
        break;
    }
    if (rest == "path") return FieldId::kObjectPath;
    switch (ResolveNetworkField(rest)) {
      case FieldId::kSrcIp:
        return FieldId::kObjectSrcIp;
      case FieldId::kDstIp:
        return FieldId::kObjectDstIp;
      case FieldId::kSrcPort:
        return FieldId::kObjectSrcPort;
      case FieldId::kDstPort:
        return FieldId::kObjectDstPort;
      case FieldId::kProtocol:
        return FieldId::kObjectProtocol;
      default:
        break;
    }
    return FieldId::kInvalid;
  }
  return FieldId::kInvalid;
}

// ---------------------------------------------------------------------------
// Compiled fast path.
// ---------------------------------------------------------------------------

Result<Value> GetEntityField(const Event& event, EntityRole role,
                             FieldId id) {
  switch (id) {
    case FieldId::kExeName: {
      const ProcessEntity* p = ProcOf(event, role);
      if (p == nullptr) return NoEntityAttr(TypeOf(event, role), "exe_name");
      return Value(p->exe_name);
    }
    case FieldId::kPid: {
      const ProcessEntity* p = ProcOf(event, role);
      if (p == nullptr) return NoEntityAttr(TypeOf(event, role), "pid");
      return Value(p->pid);
    }
    case FieldId::kUser: {
      const ProcessEntity* p = ProcOf(event, role);
      if (p == nullptr) return NoEntityAttr(TypeOf(event, role), "user");
      return Value(p->user);
    }
    case FieldId::kPath: {
      const FileEntity* f = FileOf(event, role);
      if (f == nullptr) return NoEntityAttr(TypeOf(event, role), "path");
      return Value(f->path);
    }
    case FieldId::kSrcIp: {
      const NetworkEntity* n = NetOf(event, role);
      if (n == nullptr) return NoEntityAttr(TypeOf(event, role), "srcip");
      return Value(n->src_ip);
    }
    case FieldId::kDstIp: {
      const NetworkEntity* n = NetOf(event, role);
      if (n == nullptr) return NoEntityAttr(TypeOf(event, role), "dstip");
      return Value(n->dst_ip);
    }
    case FieldId::kSrcPort: {
      const NetworkEntity* n = NetOf(event, role);
      if (n == nullptr) return NoEntityAttr(TypeOf(event, role), "sport");
      return Value(n->src_port);
    }
    case FieldId::kDstPort: {
      const NetworkEntity* n = NetOf(event, role);
      if (n == nullptr) return NoEntityAttr(TypeOf(event, role), "dport");
      return Value(n->dst_port);
    }
    case FieldId::kProtocol: {
      const NetworkEntity* n = NetOf(event, role);
      if (n == nullptr) return NoEntityAttr(TypeOf(event, role), "protocol");
      return Value(n->protocol);
    }
    case FieldId::kName: {
      if (const ProcessEntity* p = ProcOf(event, role)) {
        return Value(p->exe_name);
      }
      if (const FileEntity* f = FileOf(event, role)) return Value(f->path);
      return NoEntityAttr(TypeOf(event, role), "name");
    }
    default:
      return Status::Internal("field id is not an entity attribute");
  }
}

Result<Value> GetEventField(const Event& event, FieldId id) {
  switch (id) {
    case FieldId::kAmount:
      return Value(event.amount);
    case FieldId::kTs:
      return Value(event.ts);
    case FieldId::kAgentId:
      return Value(event.agent_id);
    case FieldId::kOp:
      return Value(std::string(EventOpName(event.op)));
    case FieldId::kFailed:
      return Value(event.failed);
    case FieldId::kId:
      return Value(static_cast<int64_t>(event.id));
    case FieldId::kSubjectExeName:
      return GetEntityField(event, EntityRole::kSubject, FieldId::kExeName);
    case FieldId::kSubjectPid:
      return GetEntityField(event, EntityRole::kSubject, FieldId::kPid);
    case FieldId::kSubjectUser:
      return GetEntityField(event, EntityRole::kSubject, FieldId::kUser);
    case FieldId::kObjectExeName:
      return GetEntityField(event, EntityRole::kObject, FieldId::kExeName);
    case FieldId::kObjectPid:
      return GetEntityField(event, EntityRole::kObject, FieldId::kPid);
    case FieldId::kObjectUser:
      return GetEntityField(event, EntityRole::kObject, FieldId::kUser);
    case FieldId::kObjectPath:
      return GetEntityField(event, EntityRole::kObject, FieldId::kPath);
    case FieldId::kObjectName:
      return GetEntityField(event, EntityRole::kObject, FieldId::kName);
    case FieldId::kObjectSrcIp:
      return GetEntityField(event, EntityRole::kObject, FieldId::kSrcIp);
    case FieldId::kObjectDstIp:
      return GetEntityField(event, EntityRole::kObject, FieldId::kDstIp);
    case FieldId::kObjectSrcPort:
      return GetEntityField(event, EntityRole::kObject, FieldId::kSrcPort);
    case FieldId::kObjectDstPort:
      return GetEntityField(event, EntityRole::kObject, FieldId::kDstPort);
    case FieldId::kObjectProtocol:
      return GetEntityField(event, EntityRole::kObject, FieldId::kProtocol);
    default:
      return Status::Internal("field id is not an event attribute");
  }
}

const std::string* GetEntityStringFieldPtr(const Event& event,
                                           EntityRole role, FieldId id) {
  switch (id) {
    case FieldId::kExeName: {
      const ProcessEntity* p = ProcOf(event, role);
      return p == nullptr ? nullptr : &p->exe_name;
    }
    case FieldId::kUser: {
      const ProcessEntity* p = ProcOf(event, role);
      return p == nullptr ? nullptr : &p->user;
    }
    case FieldId::kPath: {
      const FileEntity* f = FileOf(event, role);
      return f == nullptr ? nullptr : &f->path;
    }
    case FieldId::kSrcIp: {
      const NetworkEntity* n = NetOf(event, role);
      return n == nullptr ? nullptr : &n->src_ip;
    }
    case FieldId::kDstIp: {
      const NetworkEntity* n = NetOf(event, role);
      return n == nullptr ? nullptr : &n->dst_ip;
    }
    case FieldId::kProtocol: {
      const NetworkEntity* n = NetOf(event, role);
      return n == nullptr ? nullptr : &n->protocol;
    }
    case FieldId::kName: {
      if (const ProcessEntity* p = ProcOf(event, role)) return &p->exe_name;
      if (const FileEntity* f = FileOf(event, role)) return &f->path;
      return nullptr;
    }
    default:
      return nullptr;
  }
}

const std::string* GetEventStringFieldPtr(const Event& event, FieldId id) {
  switch (id) {
    case FieldId::kAgentId:
      return &event.agent_id;
    case FieldId::kSubjectExeName:
      return GetEntityStringFieldPtr(event, EntityRole::kSubject,
                                     FieldId::kExeName);
    case FieldId::kSubjectUser:
      return GetEntityStringFieldPtr(event, EntityRole::kSubject,
                                     FieldId::kUser);
    case FieldId::kObjectExeName:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kExeName);
    case FieldId::kObjectUser:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kUser);
    case FieldId::kObjectPath:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kPath);
    case FieldId::kObjectName:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kName);
    case FieldId::kObjectSrcIp:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kSrcIp);
    case FieldId::kObjectDstIp:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kDstIp);
    case FieldId::kObjectProtocol:
      return GetEntityStringFieldPtr(event, EntityRole::kObject,
                                     FieldId::kProtocol);
    default:
      return nullptr;
  }
}

namespace {

/// Reads one `EventSymbols` slot, interning `name` into it on the first
/// read. A memo stamped under another generation (another table, or this
/// one before a rotation) is cleared first, so every non-zero slot always
/// shares `syms.gen`. The hit path (slot filled under the table's
/// generation) writes nothing.
uint32_t ReadSymbol(Interner& interner, const Event& event,
                    uint32_t EventSymbols::*slot, const std::string& name) {
  EventSymbols& syms = event.syms;
  if (syms.gen != interner.generation()) {
    syms = EventSymbols{};
    syms.gen = interner.generation();
  } else if (syms.*slot != Interner::kUnset) {
    return syms.*slot;
  }
  syms.*slot = interner.Intern(name);
  return syms.*slot;
}

}  // namespace

uint32_t GetEntitySymbol(Interner& interner, const Event& event,
                         EntityRole role, FieldId id) {
  if (role == EntityRole::kSubject) {
    switch (id) {
      case FieldId::kExeName:
      case FieldId::kName:
        return ReadSymbol(interner, event, &EventSymbols::subj_exe,
                          event.subject.exe_name);
      case FieldId::kUser:
        return ReadSymbol(interner, event, &EventSymbols::subj_user,
                          event.subject.user);
      default:
        return 0;
    }
  }
  switch (event.object_type) {
    case EntityType::kProcess:
      if (id == FieldId::kExeName || id == FieldId::kName) {
        return ReadSymbol(interner, event, &EventSymbols::obj_exe,
                          event.obj_proc.exe_name);
      }
      if (id == FieldId::kUser) {
        return ReadSymbol(interner, event, &EventSymbols::obj_user,
                          event.obj_proc.user);
      }
      return 0;
    case EntityType::kFile:
      if (id == FieldId::kPath || id == FieldId::kName) {
        return ReadSymbol(interner, event, &EventSymbols::obj_path,
                          event.obj_file.path);
      }
      return 0;
    case EntityType::kNetwork:
      return 0;
  }
  return 0;
}

uint32_t GetEventSymbol(Interner& interner, const Event& event, FieldId id) {
  switch (id) {
    case FieldId::kAgentId:
      return ReadSymbol(interner, event, &EventSymbols::agent, event.agent_id);
    case FieldId::kSubjectExeName:
      return GetEntitySymbol(interner, event, EntityRole::kSubject,
                             FieldId::kExeName);
    case FieldId::kSubjectUser:
      return GetEntitySymbol(interner, event, EntityRole::kSubject,
                             FieldId::kUser);
    case FieldId::kObjectExeName:
      return GetEntitySymbol(interner, event, EntityRole::kObject,
                             FieldId::kExeName);
    case FieldId::kObjectUser:
      return GetEntitySymbol(interner, event, EntityRole::kObject,
                             FieldId::kUser);
    case FieldId::kObjectPath:
      return GetEntitySymbol(interner, event, EntityRole::kObject,
                             FieldId::kPath);
    case FieldId::kObjectName:
      return GetEntitySymbol(interner, event, EntityRole::kObject,
                             FieldId::kName);
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// String-keyed path.
// ---------------------------------------------------------------------------

Result<Value> GetEntityField(const Event& event, EntityRole role,
                             const std::string& field) {
  g_string_keyed_lookups.fetch_add(1, std::memory_order_relaxed);
  EntityType type = TypeOf(event, role);
  FieldId id = ResolveEntityFieldId(type, field);
  if (id == FieldId::kInvalid) return NoEntityAttr(type, field);
  return GetEntityField(event, role, id);
}

Result<Value> GetEventField(const Event& event, const std::string& field) {
  g_string_keyed_lookups.fetch_add(1, std::memory_order_relaxed);
  std::string f = ToLower(field);
  FieldId id = ResolveEventFieldId(f);
  if (id != FieldId::kInvalid) return GetEventField(event, id);
  // Preserve the entity-level diagnostics for unknown subject_/object_
  // attributes ("process entity has no attribute ...").
  if (StartsWith(f, "subject_")) {
    return NoEntityAttr(EntityType::kProcess, f.substr(8));
  }
  if (StartsWith(f, "object_")) {
    return NoEntityAttr(event.object_type, f.substr(7));
  }
  return Status::NotFound("event has no attribute '" + field + "'");
}

uint64_t StringKeyedFieldLookups() {
  return g_string_keyed_lookups.load(std::memory_order_relaxed);
}

void ResetStringKeyedFieldLookups() {
  g_string_keyed_lookups.store(0, std::memory_order_relaxed);
}

const char* DefaultFieldForEntity(EntityType type) {
  switch (type) {
    case EntityType::kProcess:
      return "exe_name";
    case EntityType::kFile:
      return "name";
    case EntityType::kNetwork:
      return "dstip";
  }
  return "name";
}

bool IsValidEntityField(EntityType type, const std::string& field) {
  return ResolveEntityFieldId(type, field) != FieldId::kInvalid;
}

bool IsValidEventField(const std::string& field) {
  std::string f = ToLower(field);
  if (ResolveEventFieldId(f) != FieldId::kInvalid) return true;
  // subject_/object_ forms stay syntactically valid event attributes even
  // when the suffix only resolves per event (or not at all) — reads yield
  // NotFound at runtime, matching the pre-FieldId behaviour.
  return StartsWith(f, "subject_") || StartsWith(f, "object_");
}

}  // namespace saql
