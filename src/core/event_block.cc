#include "core/event_block.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace saql {

namespace {

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// 64x64 -> 128-bit multiply, folded back to 64 bits.
uint64_t Mum(uint64_t a, uint64_t b) {
  const __uint128_t r = static_cast<__uint128_t>(a) * b;
  return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

constexpr uint64_t kHashMul0 = 0xa0761d6478bd642fULL;
constexpr uint64_t kHashMul1 = 0xe7037ed1a0b428dbULL;

/// Exact (case-preserving) 32-bit hash of a non-empty spelling, with
/// overlapping loads: 8-byte words with the last word ending at the last
/// byte, two 4-byte loads for 4..7 bytes, and the first, middle and last
/// byte below 4. Every byte is loaded and none outside
/// `[data, data + size)`; the length is mixed in, since short spellings
/// of different lengths can load the same bytes.
uint32_t DictHash(std::string_view s) {
  const char* p = s.data();
  const size_t n = s.size();
  uint64_t h = kHashMul0 ^ n;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      h = Mum(h ^ Load64(p + i), kHashMul1);
    }
    h = Mum(h ^ Load64(p + n - 8), kHashMul1);
  } else if (n >= 4) {
    h = Mum(h ^ (Load32(p) << 32 | Load32(p + n - 4)), kHashMul1);
  } else {
    const uint64_t b = uint64_t{static_cast<uint8_t>(p[0])} << 16 |
                       uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
                       uint64_t{static_cast<uint8_t>(p[n - 1])};
    h = Mum(h ^ b, kHashMul1);
  }
  return static_cast<uint32_t>(Mum(h, kHashMul0));
}

}  // namespace

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

void EventBlock::Clear() {
  mode_ = Mode::kEmpty;
  size_ = 0;
  store_.ForEach([](auto& col) { col.clear(); });
  cols_valid_ = false;
  arena_chunk_ = 0;
  arena_used_ = 0;
  dict_own_.clear();
  for (uint32_t slot : dict_slots_) dict_table_[slot] = DictSlot{};
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
  assert(mode_ == Mode::kEmpty && "columnar append to a non-columnar block");
  mode_ = Mode::kOwnedColumnar;
  dict_own_.clear();
  dict_own_.push_back(std::string_view{});  // code 0 = ""
  dict_ = dict_own_.data();
  dict_size_ = 1;
  if (dict_table_.empty()) dict_table_.resize(kDictFirstSlots);
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
  std::vector<DictSlot> old(dict_table_.size() * 2);
  old.swap(dict_table_);
  const size_t mask = dict_table_.size() - 1;
  for (uint32_t& slot : dict_slots_) {
    const DictSlot entry = old[slot];
    slot = entry.tag & mask;
    while (dict_table_[slot].code != kEmptyCode) slot = (slot + 1) & mask;
    dict_table_[slot] = entry;
  }
}

uint32_t EventBlock::DictCode(std::string_view s) {
  if (s.empty()) return kEmptyCode;
  const uint32_t tag = DictHash(s);
  const size_t mask = dict_table_.size() - 1;
  size_t slot = tag & mask;
  for (;; slot = (slot + 1) & mask) {
    const DictSlot& entry = dict_table_[slot];
    if (entry.code == kEmptyCode) break;
    if (entry.tag == tag && dict_own_[entry.code] == s) return entry.code;
  }
  // A miss ends on the free slot the new code takes; the table grows
  // after it is placed, re-placing it by its tag.
  const uint32_t code = static_cast<uint32_t>(dict_own_.size());
  dict_own_.push_back(ArenaCopy(s));
  dict_table_[slot] = DictSlot{tag, code};
  dict_slots_.push_back(static_cast<uint32_t>(slot));
  if (2 * dict_own_.size() > dict_table_.size()) GrowDictTable();
  dict_ = dict_own_.data();  // vector growth may relocate
  dict_size_ = dict_own_.size();
  return code;
}

void EventBlock::AppendRows(const Event* rows, size_t count) {
  EnsureOwnedColumnar();
  const size_t base = size_;
  store_.ForEach([n = base + count](auto& col) { col.resize(n); });
  // One row-major pass: each row's strings are coded in column order, so
  // codes keep the first-seen order a loop of one-row appends gives.
  ColumnStore& c = store_;
  for (size_t i = 0; i < count; ++i) {
    const Event& e = rows[i];
    const size_t r = base + i;
    c.id[r] = e.id;
    c.ts[r] = e.ts;
    c.subj_pid[r] = e.subject.pid;
    c.obj_pid[r] = e.obj_proc.pid;
    c.src_port[r] = e.obj_net.src_port;
    c.dst_port[r] = e.obj_net.dst_port;
    c.amount[r] = e.amount;
    c.agent[r] = DictCode(e.agent_id);
    c.subj_exe[r] = DictCode(e.subject.exe_name);
    c.subj_user[r] = DictCode(e.subject.user);
    c.obj_exe[r] = DictCode(e.obj_proc.exe_name);
    c.obj_user[r] = DictCode(e.obj_proc.user);
    c.obj_path[r] = DictCode(e.obj_file.path);
    c.src_ip[r] = DictCode(e.obj_net.src_ip);
    c.dst_ip[r] = DictCode(e.obj_net.dst_ip);
    c.protocol[r] = DictCode(e.obj_net.protocol);
    c.op[r] = static_cast<uint8_t>(e.op);
    c.object_type[r] = static_cast<uint8_t>(e.object_type);
    c.failed[r] = e.failed ? 1 : 0;
  }
  size_ += count;
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

  // A whole block maps every source entry once and gathers branch-free.
  // A sub-range remaps lazily, so a spelling it never uses does not enter
  // this block's dictionary.
  const std::string_view* dict = src.dict();
  const bool whole = count > 0 && count == src.size();
  constexpr uint32_t kUnmapped = UINT32_MAX;
  if (whole) {
    remap_.resize(src.dict_size());
    remap_[kEmptyCode] = kEmptyCode;
    for (size_t code = 1; code < src.dict_size(); ++code) {
      remap_[code] = DictCode(dict[code]);
    }
  } else {
    remap_.assign(src.dict_size(), kUnmapped);
  }
  auto append_codes = [&](std::vector<uint32_t>& dst, const uint32_t* col) {
    const size_t base = dst.size();
    dst.resize(base + count);
    uint32_t* out = dst.data() + base;
    if (whole) {
      for (size_t i = 0; i < count; ++i) out[i] = remap_[col[i]];
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      uint32_t& code = remap_[col[i]];
      if (code == kUnmapped) code = DictCode(dict[col[i]]);
      out[i] = code;
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
