#ifndef SAQL_CORE_INTERNER_H_
#define SAQL_CORE_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
/// Concurrency: the table is shared by every concurrently open engine
/// session, so the hit path (string already interned — the steady state,
/// entity names repeat heavily in monitoring data) is **lock-free**: an
/// open-addressed table of atomically published `Entry*` slots hung off an
/// atomic table pointer. Misses and every structural mutation (insert,
/// growth, rotation) serialize on one writer mutex. `payload_bytes()` and
/// `generation()` are single atomic loads, cheap enough to poll per push.
///
/// Rotation under load: `Rotate` swaps in a fresh empty table and *retires*
/// the old table and its entries tagged with the generation they served —
/// it never frees memory a concurrent reader could still be probing.
/// Previously issued ids become meaningless for *new* comparisons, but
/// event buffers and compiled constraints survive: both carry the
/// generation their ids were issued under, and consumers fall back to
/// string comparison (or re-intern) on a generation mismatch. The engine
/// calls `ReclaimBefore` once every open session has provably moved past a
/// retired generation (its next quiesce point), which is when the retired
/// spellings are actually freed.
class Interner {
 public:
  static constexpr uint32_t kUnset = 0;

  /// Process-wide table shared by compiled queries and stream executors.
  static Interner& Global();

  Interner();
  ~Interner();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `s`, assigning the next free id on first sight.
  /// The hit path (string already interned) is lock-free and allocates
  /// nothing: lookup is case-insensitive, so no normalized copy is
  /// materialized. Safe to call from any number of threads.
  uint32_t Intern(std::string_view s);

  /// Like `Intern`, but additionally reports the generation the returned
  /// id is valid under — retrying internally when a rotation races the
  /// lookup, so the (id, generation) pair is always consistent. Use this
  /// when the id is captured for later comparison (compiled constraints,
  /// event symbol stamping).
  uint32_t InternStamped(std::string_view s, uint64_t* generation_out);

  /// Returns the id for `s`, or `kUnset` when it was never interned (in
  /// the current generation). Lock-free.
  uint32_t Find(std::string_view s) const;

  /// The normalized spelling behind a *current-generation* `id`.
  /// Precondition: id < size(). The reference stays valid until the id's
  /// generation is retired by `Rotate` *and* reclaimed by
  /// `ReclaimBefore`.
  const std::string& NameOf(uint32_t id) const;

  /// Number of ids assigned in the current generation, including the
  /// reserved id 0.
  size_t size() const;

  /// Size accounting, for bounding growth on high-cardinality fields
  /// (file paths, user names): `bytes` is the sum of the normalized
  /// spelling lengths currently held — the table's payload footprint,
  /// excluding hash/table overhead. Poll it from an operational loop and
  /// call `Rotate` when it crosses the deployment's budget.
  struct Stats {
    size_t entries = 0;       ///< ids assigned (reserved id 0 excluded)
    size_t bytes = 0;         ///< total normalized spelling bytes
    uint64_t generation = 1;  ///< bumped by every Rotate
    /// Spelling bytes retired by rotations but not yet reclaimed (still
    /// potentially visible to in-flight readers).
    size_t retired_bytes = 0;
  };
  Stats stats() const;

  /// Current rotation generation, lock-free (read on every symbol memo
  /// read and once per push on the session rotation check).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Current generation's payload bytes, lock-free. The per-push rotation
  /// policy check.
  size_t payload_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Rotation hook for long-running deployments: retires every interned
  /// spelling (tagged with the generation it served), resets accounting,
  /// and bumps the generation. Safe to call with readers in flight — they
  /// keep probing the retired table and receive ids consistent with the
  /// generation they observed. Ids restart densely at 1.
  ///
  /// Consumers self-heal: `Event::syms` carries the generation it was
  /// interned under and the symbol readers clear and re-fill a stale memo;
  /// compiled constraints carry their capture generation and fall back to
  /// string comparison until the owning session re-interns them at its
  /// next quiesce point (see `CompiledQuery::ReInternSymbols`).
  void Rotate();

  /// Frees every retired table/spelling whose generation is strictly
  /// below `generation`. The caller must guarantee no reader can still
  /// hold references into those generations — the engine calls this once
  /// every open session has advanced its observed generation past them
  /// (a session's `Push` is its quiesce point). Returns the payload bytes
  /// freed.
  size_t ReclaimBefore(uint64_t generation);

 private:
  /// One interned spelling. Heap-stable: the table only stores pointers,
  /// so growth never moves an entry and `NameOf` references survive it.
  struct Entry {
    std::string name;  ///< normalized (lowercased) spelling
    uint32_t id = 0;
    size_t hash = 0;  ///< case-insensitive hash of `name`
  };

  /// Open-addressed (linear probe) table of atomically published entries.
  struct Table {
    explicit Table(size_t capacity_pow2);
    const size_t capacity;  ///< power of two
    const size_t mask;
    std::unique_ptr<std::atomic<Entry*>[]> slots;
  };

  /// A rotation's (or growth's) retired structures, freed by
  /// `ReclaimBefore` once no reader can reach them.
  struct Retired {
    uint64_t generation = 0;  ///< generation the structures served
    std::unique_ptr<Table> table;
    std::vector<Entry*> entries;  ///< owned; empty for growth retirements
    size_t bytes = 0;
  };

  /// Lock-free probe of `t` for `s`; nullptr on miss.
  const Entry* Probe(const Table* t, std::string_view s, size_t hash) const;
  /// Inserts `e` into `t` (writer mutex held; slot published with
  /// release so lock-free readers see a fully built entry).
  static void InsertLocked(Table* t, Entry* e);
  /// Doubles the table, republishing existing entries (writer mutex
  /// held). The outgrown slot array is retired, not freed.
  void GrowLocked();

  std::atomic<Table*> table_;
  std::atomic<uint64_t> generation_{1};
  std::atomic<size_t> bytes_{0};    ///< current generation's payload
  std::atomic<size_t> entries_{0};  ///< assigned ids (id 0 excluded)

  /// Writer mutex: misses, growth, rotation, reclaim, and the id-indexed
  /// directory (`NameOf`/`size` are cold paths).
  mutable std::mutex mu_;
  std::vector<Entry*> by_id_;  ///< current generation, index == id
  std::vector<Retired> retired_;
  size_t retired_bytes_ = 0;
  Entry sentinel_;  ///< id 0: the empty spelling, never retired
};

/// Eagerly fills, for each event of a contiguous span, every slot of
/// `syms` that applies to its object type: agent id, subject
/// exe_name/user, and the object's exe_name/user (process) or path (file).
/// Each slot is read through the lazy symbol readers (core/field_access),
/// so both share one slot-to-string mapping. Network endpoint strings are
/// deliberately not interned — their cardinality is unbounded and equality
/// on them is rare. An event whose applicable slots are all filled under
/// the current generation (a memoized replay, or a row materialized from a
/// columnar block) is skipped; on return every applicable slot of every
/// event is filled under one generation, even when a rotation races the
/// call.
///
/// Off the hot path: the executors intern nothing up front, a query's
/// exact-equality compare interns the one slot it reads. Tests and the
/// end-to-end benchmark's interning probe use this to stamp whole events.
void InternEventSpan(Event* events, size_t count);

}  // namespace saql

#endif  // SAQL_CORE_INTERNER_H_
