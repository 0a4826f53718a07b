#ifndef SAQL_CORE_EVENT_BLOCK_H_
#define SAQL_CORE_EVENT_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.h"
#include "core/time_util.h"

namespace saql {

/// Columnar (structure-of-arrays) batch of events — the unit the ingestion
/// API moves between sources, the event-log storage engine, and the stream
/// executors.
///
/// A block holds every event attribute as its own column: numeric fields
/// are flat arrays, and string attributes are **dictionary-encoded** — each
/// column stores a 32-bit code into a per-block dictionary of distinct
/// spellings (code 0 is always the empty string). A block knows no symbol
/// table: rows materialized from it arrive with an empty `Event::syms`
/// memo, which the pushed session's queries fill on first read.
///
/// Three backings share this interface:
///  - **owned columnar** (`AppendRows`, `AppendColumns`): the block owns
///    its column vectors and dictionary — the event-log writer's pending
///    segment, the WAL chunk encoder, and the general building side.
///    `AppendRows` is the one row encoder: it sizes every column once per
///    call and stores a span's cells in one row-major pass. The owned
///    dictionary is one flat open-addressing table over spellings copied
///    into a chunked char arena; each slot holds an exact 32-bit hash tag
///    and a code, so a probe compares bytes only on a tag match. `Clear`
///    keeps the table, the arena chunks and the column vectors, so a
///    reused block re-encodes chunks of already-seen spellings without
///    allocating;
///  - **borrowed columnar** (`BindColumns`): the column arrays and
///    dictionary alias storage owned by someone else — the mmap'd v2
///    event-log reader hands out blocks whose columns point straight into
///    the mapped file (zero-copy replay);
///  - **rows** (`ResetBorrowedRows` / `ResetOwnedRows`): a plain `Event`
///    span, the adapter shim for sources that natively produce rows
///    (simulators, callbacks, merge fan-in). No columns exist in this mode.
///
/// Columnar blocks materialize a row view on demand (`MutableRows`); the
/// row cache is reused across rebinds, so steady-state replay reuses both
/// the vector and the row strings' capacity.
class EventBlock {
 public:
  /// Dictionary code of the empty string (never stored in the dictionary
  /// payload; every block's dictionary has "" at index 0).
  static constexpr uint32_t kEmptyCode = 0;

  /// Borrowed SoA column pointers, each `size()` elements long. String
  /// columns hold dictionary codes. Columns for fields of inactive object
  /// types carry the `Event` defaults (pid 0, empty strings, protocol
  /// "tcp"), so decoding is exact regardless of object type.
  struct Columns {
    const uint64_t* id = nullptr;
    const int64_t* ts = nullptr;
    const int64_t* subj_pid = nullptr;
    const int64_t* obj_pid = nullptr;
    const int64_t* src_port = nullptr;
    const int64_t* dst_port = nullptr;
    const int64_t* amount = nullptr;
    const uint32_t* agent = nullptr;
    const uint32_t* subj_exe = nullptr;
    const uint32_t* subj_user = nullptr;
    const uint32_t* obj_exe = nullptr;
    const uint32_t* obj_user = nullptr;
    const uint32_t* obj_path = nullptr;
    const uint32_t* src_ip = nullptr;
    const uint32_t* dst_ip = nullptr;
    const uint32_t* protocol = nullptr;
    const uint8_t* op = nullptr;
    const uint8_t* object_type = nullptr;
    const uint8_t* failed = nullptr;

    /// The same columns advanced by `offset` events (sub-range view).
    Columns Slice(size_t offset) const;
  };

  /// Bytes per dictionary arena chunk; a longer spelling gets a chunk of
  /// its own size.
  static constexpr size_t kDictChunkBytes = 4096;

  EventBlock() = default;
  EventBlock(const EventBlock&) = delete;
  EventBlock& operator=(const EventBlock&) = delete;

  /// Drops all contents (keeps allocated capacity for reuse). Costs
  /// O(dictionary entries used), not O(table size): it runs once per
  /// event on per-event recording paths.
  void Clear();

  size_t size() const {
    return mode_ == Mode::kOwnedRows ? owned_rows_.size() : size_;
  }
  bool empty() const { return size() == 0; }

  /// True when the block has columnar backing (owned or borrowed); false
  /// for row-backed shim blocks.
  bool columnar() const {
    return mode_ == Mode::kOwnedColumnar || mode_ == Mode::kBorrowedColumnar;
  }

  // -------------------------------------------------------------------
  // Row-backed shims (sources that natively produce Event rows).

  /// Wraps an externally owned row span — zero copies; annotations made
  /// through `MutableRows` land in the caller's storage.
  void ResetBorrowedRows(Event* rows, size_t count);

  /// Switches to owned-row mode and returns the (cleared) appendable row
  /// vector; `size()` tracks it.
  EventBatch& ResetOwnedRows();

  // -------------------------------------------------------------------
  // Columnar building (owned).

  /// Encodes `rows[0..count)` into the owned columns, dictionary-coding
  /// their string attributes in row-major first-seen order (the order a
  /// WAL record's dictionary pins). First call after `Clear` switches the
  /// block to owned-columnar mode.
  void AppendRows(const Event* rows, size_t count);
  /// One event: `AppendRows(&e, 1)`.
  void AppendColumnar(const Event& e) { AppendRows(&e, 1); }

  /// Appends events `[offset, offset + count)` of the columnar block `src`
  /// column by column, remapping its dictionary codes into this block's
  /// dictionary. A whole source block maps every source entry once, in
  /// source order, then gathers each code column without branches; a
  /// sub-range remaps lazily (one lookup per distinct spelling the range
  /// uses). First call after `Clear` switches the block to owned-columnar
  /// mode.
  void AppendColumns(const EventBlock& src, size_t offset, size_t count);

  // -------------------------------------------------------------------
  // Columnar adoption (borrowed; the mmap'd log reader).

  /// Binds externally owned column arrays and dictionary. All pointers
  /// must stay valid while the block is bound.
  void BindColumns(const Columns& cols, size_t count,
                   const std::string_view* dict, size_t dict_size);

  // -------------------------------------------------------------------
  // Consumption.

  /// Column views (columnar modes only; owned mode refreshes the views
  /// from the backing vectors).
  const Columns& columns() const;

  /// Dictionary spellings; entry 0 is "".
  const std::string_view* dict() const;
  size_t dict_size() const;

  /// Row view of the block; columnar blocks materialize (and cache) rows
  /// with an empty `Event::syms` memo — a reused row never keeps the memo
  /// of the row it held before. Returns nullptr for an empty block.
  /// Callers may annotate rows in place; for borrowed-row blocks the
  /// annotations land in the borrowed storage.
  Event* MutableRows();

  /// Timestamp bounds over the `ts` column / rows (scans; meant for the
  /// per-segment writer, not per-event paths). Returns false when empty.
  bool TsBounds(Timestamp* min_ts, Timestamp* max_ts) const;

 private:
  enum class Mode : uint8_t {
    kEmpty,
    kBorrowedRows,
    kOwnedRows,
    kOwnedColumnar,
    kBorrowedColumnar,
  };

  /// Owned column storage (owned-columnar mode).
  struct ColumnStore {
    std::vector<uint64_t> id;
    std::vector<int64_t> ts, subj_pid, obj_pid, src_port, dst_port, amount;
    std::vector<uint32_t> agent, subj_exe, subj_user, obj_exe, obj_user,
        obj_path, src_ip, dst_ip, protocol;
    std::vector<uint8_t> op, object_type, failed;
    /// Applies `f` to every column vector.
    template <typename F>
    void ForEach(F f) {
      f(id);
      f(ts);
      f(subj_pid);
      f(obj_pid);
      f(src_port);
      f(dst_port);
      f(amount);
      f(agent);
      f(subj_exe);
      f(subj_user);
      f(obj_exe);
      f(obj_user);
      f(obj_path);
      f(src_ip);
      f(dst_ip);
      f(protocol);
      f(op);
      f(object_type);
      f(failed);
    }
  };

  /// One chunk of the dictionary's char arena. A chunk never reallocates,
  /// so the `dict_own_` views into it stay valid until `Clear`.
  struct ArenaChunk {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;
  };

  /// Slots of the code table when it is first allocated (a power of two).
  static constexpr size_t kDictFirstSlots = 32;

  /// One slot of the owned code table: the spelling's exact hash tag and
  /// its code (`kEmptyCode` = free slot).
  struct DictSlot {
    uint32_t tag = 0;
    uint32_t code = kEmptyCode;
  };

  /// Returns the dictionary code for `s`, adding it on first sight. Codes
  /// are assigned in first-seen order. Lookup probes `dict_table_` from
  /// `s`'s exact hash (`DictHash`, no case fold: normalization is the
  /// interner's job) and compares bytes only where a slot's tag equals it.
  uint32_t DictCode(std::string_view s);

  /// Copies `s` (non-empty) into the arena and returns the stable view.
  std::string_view ArenaCopy(std::string_view s);

  /// Doubles `dict_table_` and re-places every slot by its tag.
  void GrowDictTable();

  void EnsureOwnedColumnar();
  void Materialize();

  Mode mode_ = Mode::kEmpty;
  size_t size_ = 0;

  // Columnar backing.
  ColumnStore store_;
  mutable Columns cols_;
  mutable bool cols_valid_ = false;  ///< owned views refreshed from store_

  // Dictionary: owned (arena + views + code table) or borrowed (views
  // only).
  std::vector<ArenaChunk> arena_;
  size_t arena_chunk_ = 0;  ///< chunk being filled
  size_t arena_used_ = 0;   ///< bytes used in it
  std::vector<std::string_view> dict_own_;
  /// Open-addressing table of codes into `dict_own_`: power-of-two size,
  /// linear probing from `tag & mask`, a `kEmptyCode` code marks a free
  /// slot (code 0, "", is never stored). Kept at most half full.
  std::vector<DictSlot> dict_table_;
  /// The slots holding codes, so `Clear` frees only those.
  std::vector<uint32_t> dict_slots_;
  const std::string_view* dict_ = nullptr;
  size_t dict_size_ = 0;

  /// Old-code → new-code scratch for `AppendColumns`.
  std::vector<uint32_t> remap_;

  // Row view: borrowed span or owned vector (also the materialization
  // cache for columnar blocks).
  Event* borrowed_rows_ = nullptr;
  EventBatch owned_rows_;
  bool rows_valid_ = false;
};

}  // namespace saql

#endif  // SAQL_CORE_EVENT_BLOCK_H_
