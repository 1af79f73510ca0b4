// s-overlap analysis: a graded generalization of the paper's complex
// intersection graph.
//
// The paper's intersection graph joins two complexes sharing >= 1
// protein and notes the edge "could be weighted to represent the number
// of proteins two complexes have in common". Thresholding that weight
// gives the s-intersection graph (edges between complexes sharing >= s
// proteins), and with it s-connected components, s-distances and
// s-diameters -- the "s-walk" analysis popularized by later hypergraph
// toolkits (HyperNetX/XGI). s = 1 recovers the paper's objects exactly;
// higher s isolates the strongly-cohesive complex families (the core
// machinery) from incidental single-protein contacts.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "core/overlap.hpp"
#include "graph/graph.hpp"

namespace hp::hyper {

/// Intersection graph over hyperedges with overlap threshold s >= 1
/// (s = 1 is the paper's complex intersection graph).
graph::Graph s_intersection_graph(const Hypergraph& h, index_t s);

/// Same, from an already-built overlap table (the AnalysisContext path:
/// one table serves the whole s-sweep instead of one build per s).
graph::Graph s_intersection_graph(const OverlapTable& table, index_t s);

/// Connected components of hyperedges under >= s overlap.
struct SComponents {
  std::vector<index_t> label;  ///< component id per hyperedge
  std::vector<index_t> sizes;  ///< hyperedges per component
  index_t count = 0;

  index_t largest() const;
};

SComponents s_components(const Hypergraph& h, index_t s);
SComponents s_components(const OverlapTable& table, index_t s);

/// s-distance between two hyperedges: length of the shortest walk
/// f = f0, f1, ..., fk = g with |f_i ∩ f_{i+1}| >= s. kInvalidIndex when
/// no such walk exists.
std::vector<index_t> s_distances(const Hypergraph& h, index_t source,
                                 index_t s);

/// Diameter and average s-distance over connected ordered hyperedge
/// pairs.
struct SPathSummary {
  index_t diameter = 0;
  double average_length = 0.0;
  count_t connected_pairs = 0;
};

SPathSummary s_path_summary(const Hypergraph& h, index_t s);

/// One row of the s-overlap census: the s-intersection graph at
/// threshold s, summarized.
struct SOverlapRow {
  index_t s = 0;
  index_t components = 0;  ///< s_components(...).count
  index_t largest = 0;     ///< hyperedges in the largest s-component
  count_t edges = 0;       ///< s_intersection_graph(...).num_edges()
};

/// The census for every s = 1..max_meaningful_s(table), ascending
/// (row s - 1 holds threshold s; empty when all hyperedges are pairwise
/// disjoint). One counting-sort pass buckets the f < g pairs by
/// overlap, then one union-find sweep from s_max down to 1 adds each
/// bucket: components = |F| - successful unions, largest = running max
/// of merged sizes, edges = cumulative pair count. O(P α(|F|) + s_max)
/// for P overlapping pairs, instead of two graph builds per s.
std::vector<SOverlapRow> s_overlap_census(const OverlapTable& table);

/// The largest s for which some pair of distinct hyperedges still
/// overlaps in >= s vertices (0 if all hyperedges are pairwise
/// disjoint). Above this value every s-intersection graph is empty.
index_t max_meaningful_s(const Hypergraph& h);
index_t max_meaningful_s(const OverlapTable& table);

}  // namespace hp::hyper
