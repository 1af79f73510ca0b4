// Frontier-driven peeling engine shared by every peel policy.
//
// Historically each peel level (and each bulk cascade round) re-scanned
// all |V| vertices to find the sub-threshold frontier -- fine at the
// paper's 1,361 proteins, ruinous at the 10^6-10^7-vertex surrogates
// the benchmarks now drive. This module replaces the scans with
// work-proportional frontier maintenance (the decrement-and-filter
// shape of Blaze's k-core EdgeMap/VertexMap, SNIPPETS.md section 2):
//
//   * FrontierBuckets -- a lazy bucket queue keyed by residual degree.
//     Every degree drop pushes a (vertex, new-degree) entry into
//     bucket[new-degree]; entering level k drains buckets 0..k-1 and
//     filters stale entries (dead vertices, duplicates from multiple
//     drops). Degrees only decrease, so an entry in a bucket below the
//     current level is never missed and never early: the drained set is
//     exactly {v live : degree(v) < k}, i.e. what the scan found, at
//     O(drops) total cost instead of O(levels * |V|).
//
//   * LaneDropBags -- per-pool-lane bags of degree-drop records for the
//     bulk-synchronous k-core peel. Lanes append race-free to their
//     own bag while edge deletions decrement degrees atomically; the
//     driver drains all bags between rounds, splitting drops into the
//     in-level frontier (new degree < k) and FrontierBuckets (future
//     levels).
//
//   * EpochStamps -- |F|-sized claim marks for deduplicating the
//     touched-edge set a parallel round produces. Bumping the epoch
//     invalidates all stamps in O(1), so rounds never clear the array.
//
//   * LazyPeelHeap -- the measure-driven (generalized-core) flavor of
//     the same discipline: a lazy-deletion heap over double-valued
//     measures where stale entries are skipped at pop time instead of
//     being located and updated in place.
//
// All four report into PeelStats (frontier_pushes / frontier_wasted),
// so the engine's work-proportionality is observable: pushes are
// bounded by |pins| + |V| per decomposition, and wasted counts exactly
// the lazy slack.
//
// The shared initial-reduction fixpoint (erase_non_maximal) also lives
// here: it re-seeds containment candidates from the just-doomed edges'
// overlap neighborhoods instead of rescanning every live edge, which
// keeps adversarial duplicate-chain inputs (hp_fuzz kDuplicateChain)
// linear instead of quadratic.
#pragma once

#include <queue>
#include <vector>

#include "core/peel/peel_stats.hpp"
#include "core/peel/residual.hpp"

namespace hp::hyper {

/// Lazy bucket queue over vertices keyed by residual degree.
///
/// Entries are append-only hints, not exact positions: a vertex may sit
/// in several buckets at once (one per degree it has passed through) and
/// is validated against the live residual state at drain time. Compared
/// to the exact decrease-key hp::BucketQueue this trades a bounded
/// amount of slack (counted as frontier_wasted) for push paths that are
/// branch-free and, in the parallel driver, mergeable from per-lane
/// bags without locks.
class FrontierBuckets {
 public:
  /// Buckets 0..max_degree. Stats are optional.
  FrontierBuckets(index_t max_degree, PeelStats* stats)
      : buckets_(static_cast<std::size_t>(max_degree) + 1), stats_(stats) {}

  /// Lazy entry: v currently has residual degree d. O(1) amortized.
  void push(index_t v, index_t d) {
    buckets_[d].push_back(v);
    if (stats_ != nullptr) ++stats_->frontier_pushes;
  }

  /// Drain every bucket strictly below `level`, appending entries that
  /// pass `valid(v)` to `out` exactly once (duplicates are filtered via
  /// `valid`, which the caller makes single-accepting, e.g. an in-queue
  /// mark). Stale or duplicate entries count as frontier_wasted.
  /// Degrees never grow, so an entry in bucket d < level whose vertex is
  /// still alive is genuinely sub-threshold; buckets >= level are left
  /// untouched for later levels.
  template <typename ValidFn>
  void drain_below(index_t level, ValidFn&& valid,
                   std::vector<index_t>& out) {
    const index_t top =
        std::min<index_t>(level, static_cast<index_t>(buckets_.size()));
    for (index_t d = 0; d < top; ++d) {
      for (index_t v : buckets_[d]) {
        if (valid(v)) {
          out.push_back(v);
        } else if (stats_ != nullptr) {
          ++stats_->frontier_wasted;
        }
      }
      buckets_[d].clear();
    }
  }

 private:
  std::vector<std::vector<index_t>> buckets_;
  PeelStats* stats_;
};

/// One degree-drop record produced while deleting edges: `vertex` fell
/// to residual degree `degree` (each atomic decrement observes a unique
/// value, so records are naturally distinct per vertex).
struct DegreeDrop {
  index_t vertex;
  index_t degree;
};

/// Per-lane append bags for degree drops. Lanes write race-free to
/// their own bag during a parallel region; the driver drains everything
/// between rounds. Capacity is the pool's lane count.
class LaneDropBags {
 public:
  explicit LaneDropBags(int lanes)
      : bags_(static_cast<std::size_t>(lanes)) {}

  void record(int lane, index_t vertex, index_t degree) {
    bags_[static_cast<std::size_t>(lane)].push_back({vertex, degree});
  }

  /// Invoke fn(vertex, degree) for every record, then clear all bags.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (std::vector<DegreeDrop>& bag : bags_) {
      for (const DegreeDrop& drop : bag) fn(drop.vertex, drop.degree);
      bag.clear();
    }
  }

  count_t total() const {
    count_t n = 0;
    for (const std::vector<DegreeDrop>& bag : bags_) n += bag.size();
    return n;
  }

 private:
  std::vector<std::vector<DegreeDrop>> bags_;
};

/// Epoch-stamped claim marks over `size` items. claim(i) is true for
/// exactly one caller per epoch (atomic exchange), so concurrent lanes
/// can deduplicate the touched-edge set without clearing scratch
/// between rounds: next_epoch() invalidates every stamp in O(1).
class EpochStamps {
 public:
  explicit EpochStamps(index_t size);

  void next_epoch() { ++epoch_; }

  /// True exactly once per item per epoch, under any interleaving.
  bool claim(index_t item);

 private:
  std::vector<std::uint64_t> stamps_;  // accessed via std::atomic_ref
  std::uint64_t epoch_ = 0;
};

/// Lazy-deletion max-measure peeling heap for the generalized-core
/// policy: entries are (measure, vertex) snapshots; pop_min re-checks
/// each entry against the caller's current values and skips stale ones
/// (counted as frontier_wasted) instead of performing decrease-key.
/// Deterministic: ties break toward the lower vertex id, matching the
/// historical priority_queue implementation bit for bit.
class LazyPeelHeap {
 public:
  explicit LazyPeelHeap(PeelStats* stats) : stats_(stats) {}

  void push(index_t vertex, double key) {
    heap_.push(Entry{key, vertex});
    if (stats_ != nullptr) ++stats_->frontier_pushes;
  }

  /// Pop the minimum entry whose key still equals `current(vertex)` and
  /// whose vertex passes `live(vertex)`. Returns kInvalidIndex when the
  /// heap drains without a current entry.
  template <typename CurrentFn, typename LiveFn>
  index_t pop_min(CurrentFn&& current, LiveFn&& live) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (live(top.vertex) && top.key == current(top.vertex)) {
        return top.vertex;
      }
      if (stats_ != nullptr) ++stats_->frontier_wasted;
    }
    return kInvalidIndex;
  }

 private:
  struct Entry {
    double key;
    index_t vertex;
    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      return vertex > other.vertex;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  PeelStats* stats_;
};

/// Shared initial-reduction fixpoint: delete every non-maximal edge of
/// `residual` (which must be freshly constructed or at least
/// vertex-complete) using the bulk containment sweep, re-seeding
/// follow-up candidates from the overlap neighborhoods of the edges
/// just doomed instead of rescanning all live edges. Returns the number
/// of edges erased. Deleting edges cannot create new containments
/// (residual vertex sets are untouched), so the re-seeded second sweep
/// is a bounded self-check that terminates the fixpoint after work
/// proportional to the doomed edges' neighborhoods -- adversarial
/// duplicate chains stay linear where the full-rescan loop went
/// quadratic.
index_t erase_non_maximal(ResidualHypergraph& residual, PeelStats* stats);

}  // namespace hp::hyper
