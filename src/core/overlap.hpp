// Pairwise hyperedge overlap table -- adapter over the flat substrate.
//
// overlap(f, g) = |f ∩ g| is the quantity the paper's k-core algorithm
// maintains instead of comparing vertex sets: an edge f is contained in g
// exactly when its current cardinality equals its current overlap with g.
// The table also yields degree-2 statistics: d2(f) = number of hyperedges
// sharing at least one vertex with f (Delta_2,F = max over f), and d2(v)
// = number of distinct other vertices co-occurring with v, both of which
// appear in the paper's complexity bounds and in Table 1.
//
// Storage and lookups live in FlatOverlapTracker
// (core/peel/flat_overlap.hpp), a read-only CSR-of-rows store. This
// class is the facade used by Table-1 reporting, the s-overlap census
// and their tests. The summary's Delta_2,F comes from max_edge_degree2,
// which counts row widths without building the table.
#pragma once

#include <utility>
#include <vector>

#include "core/hypergraph.hpp"
#include "core/peel/flat_overlap.hpp"

namespace hp::hyper {

/// Sparse symmetric table of nonzero pairwise overlaps.
class OverlapTable {
 public:
  /// Build from the incidence lists in O(sum_v d(v)^2) time.
  explicit OverlapTable(const Hypergraph& h) : tracker_(h) {}

  /// |f ∩ g|; zero when disjoint or f == g.
  index_t overlap(index_t f, index_t g) const {
    return tracker_.overlap(f, g);
  }

  /// Row of f viewed as (g, overlap) pairs over all g (!= f) with
  /// overlap(f, g) > 0, in ascending g.
  class RowView {
   public:
    class iterator {
     public:
      iterator(const index_t* g, const index_t* ov) : g_(g), ov_(ov) {}
      std::pair<index_t, index_t> operator*() const { return {*g_, *ov_}; }
      iterator& operator++() {
        ++g_;
        ++ov_;
        return *this;
      }
      bool operator!=(const iterator& other) const { return g_ != other.g_; }

     private:
      const index_t* g_;
      const index_t* ov_;
    };
    RowView(std::span<const index_t> neighbors,
            std::span<const index_t> counts)
        : neighbors_(neighbors), counts_(counts) {}
    iterator begin() const {
      return {neighbors_.data(), counts_.data()};
    }
    iterator end() const {
      return {neighbors_.data() + neighbors_.size(),
              counts_.data() + counts_.size()};
    }
    std::size_t size() const { return neighbors_.size(); }

   private:
    std::span<const index_t> neighbors_;
    std::span<const index_t> counts_;
  };

  RowView row(index_t f) const {
    return {tracker_.neighbors(f), tracker_.counts(f)};
  }

  /// d2(f): number of hyperedges overlapping f.
  index_t degree2(index_t f) const { return tracker_.degree2(f); }

  /// Delta_2,F: max degree2 over all hyperedges (0 if no edges).
  index_t max_degree2() const { return tracker_.max_degree2(); }

  index_t num_edges() const { return tracker_.num_edges(); }

  /// Bytes held by the underlying flat arrays.
  std::size_t storage_bytes() const { return tracker_.storage_bytes(); }

 private:
  FlatOverlapTracker tracker_;
};

/// Delta_2,F without the table: OverlapTable{h}.max_degree2(), counted
/// row by row with one epoch-stamp array. Stores no rows and sorts
/// nothing; same O(sum_f sum_{v in f} d(v)) walk as the table build.
index_t max_edge_degree2(const Hypergraph& h);

/// d2(v): number of distinct vertices other than v sharing a hyperedge
/// with v (the cover algorithm's complexity parameter).
std::vector<index_t> vertex_degree2(const Hypergraph& h);

}  // namespace hp::hyper
