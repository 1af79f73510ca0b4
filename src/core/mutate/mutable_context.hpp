// MutableAnalysisContext: the incremental analysis pipeline.
//
// Owns a MutableHypergraph plus its derived artifacts, maintained in
// *stable* id space, incrementally:
//   - vertex degrees            O(|dirty|) per apply
//   - vertex degree histogram   O(|dirty|), moves old bucket -> new
//   - edge size histogram       O(|dirty|)
//   - connected components      union-find; pure insertion unions in
//                               near-O(1), any deletion falls back to
//                               a rebuild at the next query
//   - core decomposition        bounded repair: re-peel only the
//                               components reachable from the dirty
//                               region (see cores() below)
// Anything else is computed from the materialized snapshot().
//
// Correctness of the bounded core repair rests on peeling being
// component-local: overlaps and containment require shared vertices, so
// the global peel restricted to one component is exactly that
// component's own peel: each bulk round's frontier, containment sweep
// and lowest-id duplicate tie-break within a component depend only on
// that component's residual state. After a mutation, any
// current component containing no seed (dirty vertex or member of a
// dirty edge) is provably an unchanged old component, so re-peeling the
// seeded components and splicing is bit-identical to a full re-peel.
// The differential fuzz oracle (src/check/mutation.hpp) holds this to
// account on thousands of random mutation traces.
//
// Threading: the whole pipeline is single-writer by contract -- one
// thread mutates and queries. Artifacts handed out by reference are
// invalidated by the next apply()/mutation, exactly like iterators of a
// std::vector under insert. The core peel runs under
// par::LaneLimit{1}, so an edit's latency does not hang on the pool's
// fork-joins.
#pragma once

#include <cstdint>
#include <vector>

#include "core/context/context_stats.hpp"
#include "core/kcore.hpp"
#include "core/mutate/mutable_hypergraph.hpp"
#include "core/peel/peel_stats.hpp"
#include "core/traversal.hpp"
#include "util/histogram.hpp"

namespace hp::hyper {

namespace detail {

/// Union-find over vertex ids with union by size and path halving.
struct UnionFind {
  std::vector<index_t> parent;
  std::vector<index_t> size;

  void reset(index_t n);
  void grow(index_t n);
  index_t find(index_t x);
  /// Returns true when two distinct roots were merged.
  bool unite(index_t a, index_t b);
};

}  // namespace detail

class MutableAnalysisContext {
 public:
  /// Start from an immutable base (unpacked into a MutableHypergraph).
  explicit MutableAnalysisContext(const Hypergraph& base);

  MutableAnalysisContext(const MutableAnalysisContext&) = delete;
  MutableAnalysisContext& operator=(const MutableAnalysisContext&) = delete;

  /// The underlying editable structure. Mutate freely, then call
  /// apply() (or any query, which applies implicitly).
  MutableHypergraph& graph() { return graph_; }
  const MutableHypergraph& graph() const { return graph_; }

  /// Absorb pending mutations into every *built* artifact. No-op when
  /// the graph is clean.
  void apply();

  // Stable id space: tombstones report degree 0 and form singleton
  // components, matching their appearance in the materialized snapshot.
  const std::vector<index_t>& vertex_degrees();
  const Histogram& vertex_degree_histogram();
  const Histogram& edge_size_histogram();
  /// Canonical component labeling, bit-identical to
  /// connected_components(snapshot().hypergraph) with edge labels in
  /// compact (snapshot) edge order.
  const HyperComponents& components();
  /// Core decomposition in stable id space: vertex_core by vertex id,
  /// edge_core / in_reduced by stable edge slot (dead slots report 0).
  /// Level counts, max_core and the compact-order invariants match
  /// core_decomposition(snapshot().hypergraph) exactly.
  const HyperCoreResult& cores();
  /// Substrate + repair counters accumulated across all core builds and
  /// repairs so far.
  const PeelStats& core_peel_stats() const { return peel_stats_; }

  /// Materialized snapshot of the current version (cached).
  const MutableHypergraph::Snapshot& snapshot();

  /// Fraction of live vertices the seeded region may reach before a
  /// bounded repair escalates to a full re-peel (default 0.5).
  void set_repair_threshold(double fraction) {
    repair_threshold_ = fraction;
  }

  struct ApplyStats {
    count_t applies = 0;             ///< non-empty apply() calls
    count_t mutations = 0;           ///< graph mutations absorbed
    count_t incremental_updates = 0; ///< artifact-level in-place updates
    count_t component_rebuilds = 0;  ///< union-find deletion fallbacks
    count_t core_repairs = 0;        ///< bounded subcore re-peels
    count_t core_repair_fallbacks = 0;
  };
  const ApplyStats& apply_stats() const { return apply_stats_; }

  /// One row per artifact, with its incremental-update count.
  ContextStats stats();

 private:
  struct CheapCounters {
    bool built = false;
    count_t builds = 0;
    count_t hits = 0;
    count_t incremental_updates = 0;
  };

  void grow_tracked_arrays();
  void rebuild_union_find();
  void canonicalize_components();
  void build_cores_full(bool count_as_fallback);
  void repair_cores();
  void recompute_levels();

  MutableHypergraph graph_;

  // degrees
  CheapCounters degrees_counters_;
  std::vector<index_t> degrees_;

  // histograms
  CheapCounters vertex_hist_counters_;
  Histogram vertex_hist_;
  CheapCounters edge_hist_counters_;
  Histogram edge_hist_;

  // components
  CheapCounters components_counters_;
  detail::UnionFind uf_;
  bool uf_stale_ = false;         ///< deletion happened; rebuild UF
  bool components_dirty_ = false; ///< canonical output needs refresh
  HyperComponents components_;

  // cores
  CheapCounters cores_counters_;
  HyperCoreResult cores_;                      // stable id space
  std::vector<count_t> core_count_v_;          // #vertices per exact core
  std::vector<count_t> core_count_e_;          // #edges per exact core
  count_t reduced_edge_count_ = 0;             // live edges in level-0
  std::vector<index_t> pending_seeds_;         // dirty vertices (stable)
  std::vector<index_t> pending_dead_vertices_;
  std::vector<index_t> pending_dead_edges_;
  bool cores_dirty_ = false;
  // BFS scratch, epoch-stamped to avoid O(V) clears per repair.
  std::vector<std::uint64_t> vertex_mark_;
  std::vector<std::uint64_t> edge_mark_;
  std::uint64_t mark_epoch_ = 0;
  std::vector<index_t> vertex_local_;  // stable -> local repair id
  double repair_threshold_ = 0.5;
  PeelStats peel_stats_;

  ApplyStats apply_stats_;
};

}  // namespace hp::hyper
