// Flat sparse pairwise-overlap store (CSR-of-rows).
//
// Stores overlap(f, g) = |f ∩ g| for every unordered pair of distinct
// hyperedges sharing at least one vertex in the input hypergraph: the
// quantity behind the paper's Delta_2,F and d2 statistics. All rows
// live in two contiguous arrays (neighbor ids, counts) addressed by
// per-row offsets:
//
//   offsets_:   |F|+1 row starts
//   neighbors_: row f = sorted ids of edges overlapping f
//   counts_:    counts_[s] = |f ∩ neighbors_[s]|
//
// The store is read-only after construction; point lookups are binary
// searches within a row. It is the storage behind OverlapTable
// (core/overlap.hpp). The k-core peel does not maintain overlaps
// incrementally: it recounts them for the edges a round shrank
// (core/peel/containment.hpp).
#pragma once

#include <span>
#include <vector>

#include "core/hypergraph.hpp"

namespace hp::hyper {

class FlatOverlapTracker {
 public:
  /// Build from incidence lists in O(sum_f sum_{v in f} d(v)) time.
  explicit FlatOverlapTracker(const Hypergraph& h);

  index_t num_edges() const {
    return static_cast<index_t>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Sorted ids of edges that overlap f.
  std::span<const index_t> neighbors(index_t f) const {
    return {neighbors_.data() + offsets_[f],
            neighbors_.data() + offsets_[f + 1]};
  }

  /// Overlap counts, parallel to neighbors(f); every entry is >= 1.
  std::span<const index_t> counts(index_t f) const {
    return {counts_.data() + offsets_[f], counts_.data() + offsets_[f + 1]};
  }

  /// |f ∩ g|; 0 when disjoint or f == g.
  index_t overlap(index_t f, index_t g) const;

  /// d2(f): number of hyperedges overlapping f (row width).
  index_t degree2(index_t f) const {
    return static_cast<index_t>(offsets_[f + 1] - offsets_[f]);
  }

  /// Delta_2,F: max degree2 over all hyperedges (0 if no edges).
  index_t max_degree2() const;

  /// Bytes held by the CSR arrays (footprint reporting / benches).
  std::size_t storage_bytes() const {
    return offsets_.size() * sizeof(offsets_[0]) +
           neighbors_.size() * sizeof(neighbors_[0]) +
           counts_.size() * sizeof(counts_[0]);
  }

 private:
  /// Slot of g inside row f, or kInvalidIndex when disjoint.
  std::size_t slot_of(index_t f, index_t g) const;

  std::vector<std::size_t> offsets_;
  std::vector<index_t> neighbors_;
  std::vector<index_t> counts_;
};

}  // namespace hp::hyper
