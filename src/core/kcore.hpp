// Hypergraph k-core decomposition -- the paper's central algorithm
// (Fig. 4).
//
// Definition (section 3): the k-core of a hypergraph H is the maximal
// sub-hypergraph that is *reduced* (no hyperedge contained in another)
// and in which every vertex belongs to at least k hyperedges. When a
// vertex is deleted it is removed from all hyperedges containing it; a
// hyperedge is deleted as soon as it stops being maximal (including the
// special case of becoming empty).
//
// Non-maximality is detected without set comparisons by counting
// overlaps, the paper's trick: hyperedge f is contained in a live
// hyperedge g exactly when f's current cardinality equals its current
// overlap with g. The peel is bulk-synchronous on the shared pool
// (src/par/), the parallel algorithm the paper's section 3 calls for:
// each round removes the whole sub-threshold frontier at once, then
// re-checks maximality only for the edges that shrank, with an
// overlap-counting sweep over their residual members
// (core/peel/containment.hpp). Frontiers come from lazy degree buckets
// and per-lane degree-drop bags (core/peel/frontier.hpp), so no round
// rescans |V|. One lane (par::LaneLimit{1}, or HP_THREADS=1) is the
// serial path; every lane count gives bit-identical results.
//
// The decomposition runs the peel at k = 1, 2, ... on the shrinking
// residual; core(x) = largest k such that x survives the level-k peel.
// Cores are nested, and the maximum core is the largest k with a
// non-empty residual.
#pragma once

#include <vector>

#include "core/hypergraph.hpp"
#include "core/peel/peel_stats.hpp"

namespace hp::hyper {

/// Result of the full core decomposition.
struct HyperCoreResult {
  /// vertex_core[v] = largest k such that v belongs to the k-core
  /// (0 = not even in the 1-core, e.g. an isolated vertex).
  std::vector<index_t> vertex_core;
  /// edge_core[e] = largest k such that e belongs (as a residual edge)
  /// to the k-core. For groups of hyperedges that become identical during
  /// peeling, only one representative keeps the higher core value: the
  /// lowest id survives, as in the initial reduction and in
  /// core_decomposition_naive.
  std::vector<index_t> edge_core;
  /// in_reduced[e] != 0 iff edge e survived the initial reduction (the
  /// level-0 residual). Not derivable from edge_core: reduction-removed
  /// and level-1-removed edges both report core 0, yet only the latter
  /// counted toward level_edges[0]. Incremental core repair
  /// (core/mutate/) needs this to maintain level_edges[0] under splices.
  std::vector<char> in_reduced;
  /// Largest k with a non-empty k-core.
  index_t max_core = 0;
  /// level_vertices[k] / level_edges[k]: number of vertices / edges in
  /// the k-core, for k = 0 .. max_core (index 0 = whole reduced input).
  std::vector<index_t> level_vertices;
  std::vector<index_t> level_edges;

  std::vector<index_t> core_vertices(index_t k) const;
  std::vector<index_t> core_edges(index_t k) const;
};

/// Full core decomposition via the bulk frontier peel. Substrate
/// counters (containment probes, deletions, rounds, peak frontier,
/// frontier pushes/wasted) are accumulated into `*stats` when non-null.
HyperCoreResult core_decomposition(const Hypergraph& h,
                                   PeelStats* stats = nullptr);

/// Scan twin of core_decomposition: the same rounds, but every round
/// re-derives its frontier with an O(|V|) rescan instead of the bucket
/// and bag plumbing. Kept as the differential-testing oracle and the
/// baseline of the frontier gate (bench_micro_kcore); results are
/// bit-identical (vertex_core, edge_core, levels, in_reduced) on every
/// input, only the frontier cost differs.
HyperCoreResult core_decomposition_scan(const Hypergraph& h,
                                        PeelStats* stats = nullptr);

/// Extract the k-core as a standalone hypergraph (residual hyperedges
/// restricted to core vertices), with id maps back to the input.
SubHypergraph extract_core(const Hypergraph& h, const HyperCoreResult& d,
                           index_t k);

/// Verify that `core` (as a sub-hypergraph of h described by the masks)
/// satisfies the k-core conditions: reduced, and every vertex has degree
/// >= k. Used by tests and exposed for downstream sanity checks.
bool satisfies_core_conditions(const Hypergraph& core, index_t k);

}  // namespace hp::hyper
