#include "core/event_block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/string_util.h"

namespace saql {

EventBlock::Columns EventBlock::Columns::Slice(size_t offset) const {
  Columns out = *this;
  out.id += offset;
  out.ts += offset;
  out.subj_pid += offset;
  out.obj_pid += offset;
  out.src_port += offset;
  out.dst_port += offset;
  out.amount += offset;
  out.agent += offset;
  out.subj_exe += offset;
  out.subj_user += offset;
  out.obj_exe += offset;
  out.obj_user += offset;
  out.obj_path += offset;
  out.src_ip += offset;
  out.dst_ip += offset;
  out.protocol += offset;
  out.op += offset;
  out.object_type += offset;
  out.failed += offset;
  return out;
}

void EventBlock::ColumnStore::clear() {
  id.clear();
  ts.clear();
  subj_pid.clear();
  obj_pid.clear();
  src_port.clear();
  dst_port.clear();
  amount.clear();
  agent.clear();
  subj_exe.clear();
  subj_user.clear();
  obj_exe.clear();
  obj_user.clear();
  obj_path.clear();
  src_ip.clear();
  dst_ip.clear();
  protocol.clear();
  op.clear();
  object_type.clear();
  failed.clear();
}

void EventBlock::Clear() {
  mode_ = Mode::kEmpty;
  size_ = 0;
  store_.clear();
  cols_valid_ = false;
  arena_chunk_ = 0;
  arena_used_ = 0;
  dict_own_.clear();
  for (uint32_t slot : dict_slots_) dict_table_[slot] = kEmptyCode;
  dict_slots_.clear();
  dict_ = nullptr;
  dict_size_ = 0;
  borrowed_rows_ = nullptr;
  rows_valid_ = false;
}

void EventBlock::ResetBorrowedRows(Event* rows, size_t count) {
  Clear();
  mode_ = Mode::kBorrowedRows;
  borrowed_rows_ = rows;
  size_ = count;
}

EventBatch& EventBlock::ResetOwnedRows() {
  Clear();
  mode_ = Mode::kOwnedRows;
  owned_rows_.clear();
  return owned_rows_;
}

void EventBlock::EnsureOwnedColumnar() {
  if (mode_ == Mode::kOwnedColumnar) return;
  assert(mode_ == Mode::kEmpty && "AppendColumnar on a non-columnar block");
  mode_ = Mode::kOwnedColumnar;
  dict_own_.clear();
  dict_own_.push_back(std::string_view{});  // code 0 = ""
  dict_ = dict_own_.data();
  dict_size_ = 1;
  if (dict_table_.empty()) dict_table_.assign(kDictFirstSlots, kEmptyCode);
}

std::string_view EventBlock::ArenaCopy(std::string_view s) {
  // Move on until a chunk has room; append a chunk when none is left.
  // Chunks are reused in order after `Clear`, so a steady stream of
  // spellings stops allocating once the arena has grown to fit it.
  for (;; ++arena_chunk_, arena_used_ = 0) {
    if (arena_chunk_ == arena_.size()) {
      const size_t capacity = std::max(kDictChunkBytes, s.size());
      arena_.push_back(
          ArenaChunk{std::make_unique<char[]>(capacity), capacity});
    }
    ArenaChunk& chunk = arena_[arena_chunk_];
    if (chunk.capacity - arena_used_ >= s.size()) {
      char* dst = chunk.bytes.get() + arena_used_;
      std::memcpy(dst, s.data(), s.size());
      arena_used_ += s.size();
      return std::string_view(dst, s.size());
    }
  }
}

void EventBlock::GrowDictTable() {
  dict_table_.assign(dict_table_.size() * 2, kEmptyCode);
  dict_slots_.clear();
  const size_t mask = dict_table_.size() - 1;
  for (size_t code = 1; code < dict_own_.size(); ++code) {
    size_t slot = AsciiCaseHash(dict_own_[code]) & mask;
    while (dict_table_[slot] != kEmptyCode) slot = (slot + 1) & mask;
    dict_table_[slot] = static_cast<uint32_t>(code);
    dict_slots_.push_back(static_cast<uint32_t>(slot));
  }
}

uint32_t EventBlock::DictCode(std::string_view s) {
  if (s.empty()) return kEmptyCode;
  const size_t mask = dict_table_.size() - 1;
  size_t slot = AsciiCaseHash(s) & mask;
  for (;; slot = (slot + 1) & mask) {
    const uint32_t code = dict_table_[slot];
    if (code == kEmptyCode) break;
    if (dict_own_[code] == s) return code;
  }
  // A miss ends on the free slot the new code takes, unless the table
  // must grow first.
  const uint32_t code = static_cast<uint32_t>(dict_own_.size());
  dict_own_.push_back(ArenaCopy(s));
  if (2 * dict_own_.size() > dict_table_.size()) {
    GrowDictTable();
  } else {
    dict_table_[slot] = code;
    dict_slots_.push_back(static_cast<uint32_t>(slot));
  }
  dict_ = dict_own_.data();  // vector growth may relocate
  dict_size_ = dict_own_.size();
  return code;
}

void EventBlock::AppendColumnar(const Event& e) {
  EnsureOwnedColumnar();
  store_.id.push_back(e.id);
  store_.ts.push_back(e.ts);
  store_.subj_pid.push_back(e.subject.pid);
  store_.obj_pid.push_back(e.obj_proc.pid);
  store_.src_port.push_back(e.obj_net.src_port);
  store_.dst_port.push_back(e.obj_net.dst_port);
  store_.amount.push_back(e.amount);
  store_.agent.push_back(DictCode(e.agent_id));
  store_.subj_exe.push_back(DictCode(e.subject.exe_name));
  store_.subj_user.push_back(DictCode(e.subject.user));
  store_.obj_exe.push_back(DictCode(e.obj_proc.exe_name));
  store_.obj_user.push_back(DictCode(e.obj_proc.user));
  store_.obj_path.push_back(DictCode(e.obj_file.path));
  store_.src_ip.push_back(DictCode(e.obj_net.src_ip));
  store_.dst_ip.push_back(DictCode(e.obj_net.dst_ip));
  store_.protocol.push_back(DictCode(e.obj_net.protocol));
  store_.op.push_back(static_cast<uint8_t>(e.op));
  store_.object_type.push_back(static_cast<uint8_t>(e.object_type));
  store_.failed.push_back(e.failed ? 1 : 0);
  ++size_;
  cols_valid_ = false;
  rows_valid_ = false;
}

void EventBlock::AppendColumns(const EventBlock& src, size_t offset,
                               size_t count) {
  assert(src.columnar() && offset + count <= src.size());
  EnsureOwnedColumnar();
  const Columns c = src.columns().Slice(offset);
  auto append = [count](auto& dst, const auto* col) {
    dst.insert(dst.end(), col, col + count);
  };
  append(store_.id, c.id);
  append(store_.ts, c.ts);
  append(store_.subj_pid, c.subj_pid);
  append(store_.obj_pid, c.obj_pid);
  append(store_.src_port, c.src_port);
  append(store_.dst_port, c.dst_port);
  append(store_.amount, c.amount);
  append(store_.op, c.op);
  append(store_.object_type, c.object_type);
  append(store_.failed, c.failed);

  // Codes are remapped lazily, so a spelling the range never uses does
  // not enter this block's dictionary.
  constexpr uint32_t kUnmapped = UINT32_MAX;
  remap_.assign(src.dict_size(), kUnmapped);
  const std::string_view* dict = src.dict();
  auto append_codes = [&](std::vector<uint32_t>& dst, const uint32_t* col) {
    const size_t base = dst.size();
    dst.resize(base + count);
    for (size_t i = 0; i < count; ++i) {
      uint32_t& code = remap_[col[i]];
      if (code == kUnmapped) code = DictCode(dict[col[i]]);
      dst[base + i] = code;
    }
  };
  append_codes(store_.agent, c.agent);
  append_codes(store_.subj_exe, c.subj_exe);
  append_codes(store_.subj_user, c.subj_user);
  append_codes(store_.obj_exe, c.obj_exe);
  append_codes(store_.obj_user, c.obj_user);
  append_codes(store_.obj_path, c.obj_path);
  append_codes(store_.src_ip, c.src_ip);
  append_codes(store_.dst_ip, c.dst_ip);
  append_codes(store_.protocol, c.protocol);
  size_ += count;
  cols_valid_ = false;
  rows_valid_ = false;
}

void EventBlock::BindColumns(const Columns& cols, size_t count,
                             const std::string_view* dict,
                             size_t dict_size) {
  Clear();
  mode_ = Mode::kBorrowedColumnar;
  cols_ = cols;
  cols_valid_ = true;
  size_ = count;
  dict_ = dict;
  dict_size_ = dict_size;
}

const EventBlock::Columns& EventBlock::columns() const {
  assert(columnar() && "columns() on a row-backed block");
  if (!cols_valid_) {
    // Owned mode: refresh views from the backing vectors (push_back may
    // have relocated them).
    cols_.id = store_.id.data();
    cols_.ts = store_.ts.data();
    cols_.subj_pid = store_.subj_pid.data();
    cols_.obj_pid = store_.obj_pid.data();
    cols_.src_port = store_.src_port.data();
    cols_.dst_port = store_.dst_port.data();
    cols_.amount = store_.amount.data();
    cols_.agent = store_.agent.data();
    cols_.subj_exe = store_.subj_exe.data();
    cols_.subj_user = store_.subj_user.data();
    cols_.obj_exe = store_.obj_exe.data();
    cols_.obj_user = store_.obj_user.data();
    cols_.obj_path = store_.obj_path.data();
    cols_.src_ip = store_.src_ip.data();
    cols_.dst_ip = store_.dst_ip.data();
    cols_.protocol = store_.protocol.data();
    cols_.op = store_.op.data();
    cols_.object_type = store_.object_type.data();
    cols_.failed = store_.failed.data();
    cols_valid_ = true;
  }
  return cols_;
}

const std::string_view* EventBlock::dict() const { return dict_; }

size_t EventBlock::dict_size() const { return dict_size_; }

void EventBlock::Materialize() {
  const Columns& c = columns();
  // resize + assign (not clear + push_back): surviving rows keep their
  // string capacity, so steady-state replay into a reused block stops
  // allocating once the row strings have grown to the corpus's sizes.
  owned_rows_.resize(size_);
  for (size_t i = 0; i < size_; ++i) {
    Event& e = owned_rows_[i];
    e.id = c.id[i];
    e.ts = c.ts[i];
    e.agent_id.assign(dict_[c.agent[i]]);
    e.subject.pid = c.subj_pid[i];
    e.subject.exe_name.assign(dict_[c.subj_exe[i]]);
    e.subject.user.assign(dict_[c.subj_user[i]]);
    e.op = static_cast<EventOp>(c.op[i]);
    e.object_type = static_cast<EntityType>(c.object_type[i]);
    e.obj_proc.pid = c.obj_pid[i];
    e.obj_proc.exe_name.assign(dict_[c.obj_exe[i]]);
    e.obj_proc.user.assign(dict_[c.obj_user[i]]);
    e.obj_file.path.assign(dict_[c.obj_path[i]]);
    e.obj_net.src_ip.assign(dict_[c.src_ip[i]]);
    e.obj_net.dst_ip.assign(dict_[c.dst_ip[i]]);
    e.obj_net.src_port = c.src_port[i];
    e.obj_net.dst_port = c.dst_port[i];
    e.obj_net.protocol.assign(dict_[c.protocol[i]]);
    e.amount = c.amount[i];
    e.failed = c.failed[i] != 0;
    // The row may hold another event from an earlier bind, with the
    // memo a session filled for it: drop the memo with the strings.
    e.syms = EventSymbols{};
  }
  rows_valid_ = true;
}

Event* EventBlock::MutableRows() {
  if (empty()) return nullptr;
  switch (mode_) {
    case Mode::kEmpty:
      return nullptr;
    case Mode::kBorrowedRows:
      return borrowed_rows_;
    case Mode::kOwnedRows:
      return owned_rows_.data();
    case Mode::kOwnedColumnar:
    case Mode::kBorrowedColumnar:
      if (!rows_valid_) Materialize();
      return owned_rows_.data();
  }
  return nullptr;
}

bool EventBlock::TsBounds(Timestamp* min_ts, Timestamp* max_ts) const {
  size_t n = size();
  if (n == 0) return false;
  if (columnar()) {
    const int64_t* ts = columns().ts;
    auto [lo, hi] = std::minmax_element(ts, ts + n);
    *min_ts = *lo;
    *max_ts = *hi;
    return true;
  }
  const Event* rows =
      mode_ == Mode::kBorrowedRows ? borrowed_rows_ : owned_rows_.data();
  Timestamp lo = rows[0].ts, hi = rows[0].ts;
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, rows[i].ts);
    hi = std::max(hi, rows[i].ts);
  }
  *min_ts = lo;
  *max_ts = hi;
  return true;
}

}  // namespace saql
