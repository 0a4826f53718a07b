#ifndef SAQL_ENGINE_MULTIEVENT_MATCHER_H_
#define SAQL_ENGINE_MULTIEVENT_MATCHER_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "engine/compiled_pattern.h"
#include "parser/analyzer.h"

namespace saql {

/// A complete match of all event patterns of a query. The match borrows
/// its events: a single-pattern match points at the pushed event itself,
/// a multi-pattern match at the completing partial's own copies. Either
/// stays alive only until the producer's next `OnEvent`, so a consumer
/// reads the match at once and copies whatever it keeps.
struct PatternMatch {
  /// Matched events indexed by *declaration-order* pattern index.
  std::vector<const Event*> events;
  Timestamp first_ts = 0;
  Timestamp last_ts = 0;
};

/// The paper's multievent matcher (§II-C): matches stream events against
/// the query's event patterns, honouring
///  - per-pattern attribute constraints,
///  - shared entity variables across patterns (Query 1's `f1` must be the
///    same file in evt2 and evt3),
///  - the `with evt1 -> evt2` temporal order with optional per-step gap
///    bounds.
///
/// Implementation: NFA-style partial matches with skip-till-any-match
/// semantics — an event extending a partial match *forks* it, so
/// alternative combinations still complete. Memory is bounded by
/// `Options::max_partial_matches` (drops are counted) and by pruning
/// partials older than the match horizon.
///
/// `OnEvent` tests each pattern once per event into a match mask (member
/// scratch) before it looks at any partial: an event matching no pattern
/// returns at once, and extending a partial reads the mask instead of
/// re-testing the pattern. There is no scratch partial per event: a new
/// partial is copied from one empty template only for a slot the event
/// matches, and the extensions vector is member scratch too.
class MultieventMatcher {
 public:
  struct Options {
    /// Partials whose first event is older than this are pruned. Queries
    /// with a window use the window length instead when smaller.
    Duration match_horizon = 24 * kHour;
    /// Hard cap on live partial matches.
    size_t max_partial_matches = 100000;
  };

  struct Stats {
    uint64_t events_in = 0;
    uint64_t partials_created = 0;
    uint64_t partials_dropped = 0;  ///< dropped at the cap
    uint64_t matches = 0;
    size_t peak_partials = 0;
  };

  /// `aq` supplies pattern order, shared variables and gap bounds;
  /// `patterns` are the compiled patterns in declaration order (not owned;
  /// must outlive the matcher).
  MultieventMatcher(AnalyzedQueryPtr aq,
                    const std::vector<CompiledPattern>* patterns,
                    Options options);

  /// Feeds one event (already past global constraints); appends completed
  /// matches to `out`. The matches point into this matcher's scratch and
  /// are valid until the next `OnEvent`.
  void OnEvent(const Event& event, std::vector<PatternMatch>* out);

  /// Drops partials that can no longer complete by `watermark`.
  void Prune(Timestamp watermark);

  const Stats& stats() const { return stats_; }
  size_t live_partials() const { return partials_.size(); }

 private:
  struct Partial {
    std::vector<Event> events;       // by declaration index
    std::vector<bool> filled;
    int filled_count = 0;
    int next_step = 0;               // position in temporal_order (ordered)
    Timestamp first_ts = 0;
    Timestamp last_ts = 0;
    std::unordered_map<std::string, std::string> bindings;  // var -> key
  };

  /// Tries to place `event` into slot `pattern_idx` of `p`; returns false
  /// when the slot's pattern did not match (`match_mask_`), the gap bound
  /// or the bindings reject it. On success fills a copy.
  bool TryExtend(const Partial& p, int pattern_idx, const Event& event,
                 Partial* out) const;

  /// True if `event`'s entity keys are consistent with `bindings`; records
  /// new keys into `bindings`.
  bool BindVars(int pattern_idx, const Event& event,
                std::unordered_map<std::string, std::string>* bindings) const;

  void Emit(const Partial& p, std::vector<PatternMatch>* out);

  AnalyzedQueryPtr aq_;
  const std::vector<CompiledPattern>* patterns_;
  Options options_;
  Duration horizon_;
  std::list<Partial> partials_;
  Stats stats_;

  /// A partial with every slot empty; copied when an event starts one.
  Partial empty_;

  // Per-event scratch.
  std::vector<bool> match_mask_;  ///< by declaration index
  std::vector<Partial> extensions_;
};

}  // namespace saql

#endif  // SAQL_ENGINE_MULTIEVENT_MATCHER_H_
