#ifndef SAQL_CORE_INTERNER_H_
#define SAQL_CORE_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.h"

namespace saql {

/// Symbol table mapping hot strings (executable names, users, agent ids,
/// file paths) to dense 32-bit ids so equality predicates on the per-event
/// hot path compare integers instead of strings.
///
/// Strings are normalized to ASCII lowercase before interning, matching
/// SAQL's case-insensitive entity-name semantics (`LikeMatcher`,
/// `ValuesEqual`): two strings receive the same id iff an exact (wildcard
/// free) SAQL equality would consider them equal. The fold is the shared
/// `FoldAscii` (core/string_util): only 'A'..'Z' fold, every other byte
/// (bytes >= 0x80 included) is kept, and the process locale plays no part.
/// A probe hashes and compares the folded string 8 bytes at a time
/// (`AsciiCaseHash`, `AsciiCaseEqual`) without materializing a copy.
///
/// Id 0 (`kUnset`) is reserved and never assigned; an `Event` symbol slot
/// that is 0 has not been read yet (`GetEntitySymbol`/`GetEventSymbol`
/// intern a slot on its first read), and consumers fall back to string
/// comparison.
///
/// Ownership: every engine session owns one table and is its only user,
/// so the table is plain single-threaded state — no locks, no atomics.
/// The one shared piece is the generation counter below.
///
/// Generations: a table's generation names the table *and* its current
/// contents. It is drawn from one process-wide counter when the table is
/// created and again at every `Rotate`, so no two tables (and no two eras
/// of one table) ever share a generation. A symbol memo (`Event::syms`)
/// stamped by another table, or by this table before a rotation, is
/// therefore always seen as stale and refilled — a buffer pushed to one
/// session and then to another is re-read, never misread. The counter is
/// 32 bits wide, like the memo's stamp, and skips 0 ("never interned").
class Interner {
 public:
  static constexpr uint32_t kUnset = 0;

  Interner();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `s`, assigning the next free id on first sight.
  /// The hit path (string already interned) allocates nothing: lookup is
  /// case-insensitive, so no normalized copy is materialized.
  uint32_t Intern(std::string_view s);

  /// Returns the id for `s`, or `kUnset` when it was never interned (in
  /// the current generation).
  uint32_t Find(std::string_view s) const;

  /// The normalized spelling behind a current-generation `id`.
  /// Precondition: id < size(). The reference stays valid until the next
  /// `Intern` or `Rotate`.
  const std::string& NameOf(uint32_t id) const { return entries_[id].name; }

  /// Number of ids assigned in the current generation, including the
  /// reserved id 0.
  size_t size() const { return entries_.size(); }

  /// Size accounting, for bounding growth on high-cardinality fields
  /// (file paths, user names).
  struct Stats {
    size_t entries = 0;       ///< ids assigned (reserved id 0 excluded)
    size_t bytes = 0;         ///< total normalized spelling bytes
    uint32_t generation = 0;  ///< the table's current generation
    uint64_t rotations = 0;   ///< `Rotate` calls so far
  };
  Stats stats() const;

  /// The table's current generation (see the class comment).
  uint32_t generation() const { return generation_; }

  /// Sum of the normalized spelling lengths currently held — the table's
  /// payload footprint, excluding hash/table overhead. The owner polls it
  /// against its budget and calls `Rotate` when it is crossed.
  size_t payload_bytes() const { return bytes_; }

  /// Frees every interned spelling, resets accounting and draws a new
  /// generation; ids restart densely at 1. Memos stamped before the call
  /// are stale afterwards. Ids captured before the call (compiled
  /// constraints, index probe groups) are meaningless afterwards: their
  /// owner re-binds them before its next comparison
  /// (`CompiledQuery::ReInternSymbols`).
  void Rotate();

 private:
  /// One interned spelling; index in `entries_` == id.
  struct Entry {
    std::string name;  ///< normalized (lowercased) spelling
    size_t hash = 0;   ///< case-insensitive hash of `name`
  };

  /// The slot of `table_` holding `s` (hash `hash`), or the free slot
  /// where it would go.
  size_t Probe(std::string_view s, size_t hash) const;
  /// Doubles `table_` and re-places every id.
  void Grow();

  /// Open-addressed (linear probe) table of ids, `kUnset` = free; a power
  /// of two, at most 7/10 full.
  std::vector<uint32_t> table_;
  std::vector<Entry> entries_;  ///< entries_[0] is id 0, the empty name
  size_t bytes_ = 0;
  uint32_t generation_ = 0;
  uint64_t rotations_ = 0;
};

/// Eagerly fills, for each event of a contiguous span, every slot of
/// `syms` that applies to its object type: agent id, subject
/// exe_name/user, and the object's exe_name/user (process) or path (file).
/// Each slot is read through the lazy symbol readers (core/field_access),
/// so both share one slot-to-string mapping. Network endpoint strings are
/// deliberately not interned — their cardinality is unbounded and equality
/// on them is rare. An event whose applicable slots are all filled under
/// `interner`'s generation is skipped.
///
/// Off the hot path: sessions intern nothing up front, a query's
/// exact-equality compare interns the one slot it reads. Tests use this
/// to stamp whole events.
void InternEventSpan(Interner& interner, Event* events, size_t count);

/// The same pass into a table local to the call: it measures the eager
/// interning cost of a span (the end-to-end benchmark's
/// `core.intern_ns_per_event` probe). The memos it leaves carry a
/// generation no other table has, so any later reader refills them.
void InternEventSpan(Event* events, size_t count);

}  // namespace saql

#endif  // SAQL_CORE_INTERNER_H_
