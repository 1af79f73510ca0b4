// AnalysisContext: the memoized derived-artifact layer.
//
// Every analysis the paper reports (§2 properties, §3 cores, §4 covers)
// is computed from the same handful of derived structures -- the dual
// hypergraph, the graph expansions, connected components, the degree and
// size histograms, the pairwise overlap table, the reduced hypergraph,
// and the full core decomposition. An AnalysisContext owns one immutable
// Hypergraph and lazily computes, caches, and shares those artifacts
// behind a single API, so the CLI, bio::paper_report, and the bench
// drivers stop rebuilding them independently -- and future artifacts
// (centralities, spectra) have one place to hang.
//
// Concurrency: each slot is guarded by its own mutex with an atomic
// ready flag fast path, so concurrent readers racing on a cold slot
// build it exactly once and everyone blocks until the value is ready.
// Slots may depend on one another (summary pulls components, the star
// projection pulls the baits); the dependency graph is acyclic, so
// nested builds cannot deadlock. Counter updates are relaxed atomics --
// ContextStats snapshots are advisory, the cached references are what
// carry the synchronization.
//
// Mutation (PR-6): slots can be reset individually, and rebase() swaps
// in a new hypergraph resetting only the slots that were actually
// built. Resets are a *single-writer* operation: the caller must
// guarantee no concurrent reader holds a reference into the slot (the
// mutable pipeline in core/mutate/ is single-threaded by contract, so
// this falls out naturally there).
//
// The context is neither copyable nor movable (the slot mutexes pin
// it); construct it where it will live, e.g. once per CLI invocation or
// per bench table row.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "core/context/context_stats.hpp"
#include "core/hypergraph.hpp"
#include "core/kcore.hpp"
#include "core/overlap.hpp"
#include "core/peel/peel_stats.hpp"
#include "core/projection.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

namespace hp::hyper {

namespace detail {

/// One memoized artifact: built on first access (exactly once between
/// resets), then served by const reference. The first access counts as
/// the build; every later access counts as a hit. The build runs under
/// a trace span named `trace_name` (a literal, e.g.
/// "context.build.dual") and records its latency into the
/// "context.build_ns" histogram, so every artifact construction is
/// visible on the obs timeline.
///
/// Unlike the original once_flag design, a slot can be reset() (drops
/// the value, counts an invalidation) and rebuilt -- so `builds` can
/// exceed 1 over the lifetime of a mutable pipeline. reset() and
/// update() require the single-writer guarantee described in the file
/// header.
template <typename T>
class ArtifactSlot {
 public:
  template <typename Build>
  const T& get(const char* trace_name, const Build& build) const {
    if (ready_.load(std::memory_order_acquire)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *value_;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.load(std::memory_order_relaxed)) {
      obs::TraceSpan span{trace_name};
      Timer timer;
      value_.emplace(build());
      const std::uint64_t elapsed_ns = timer.nanoseconds();
      build_seconds_ += static_cast<double>(elapsed_ns) / 1e9;
      obs::latency("context.build_ns").record_ns(elapsed_ns);
      builds_.fetch_add(1, std::memory_order_relaxed);
      ready_.store(true, std::memory_order_release);
    } else {
      // Lost the race to a concurrent builder: the value is ready.
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return *value_;
  }

  /// True once the build has completed (and not been reset since).
  bool built() const { return ready_.load(std::memory_order_acquire); }

  /// Drop the cached value; the next get() rebuilds. Counts an
  /// invalidation. Returns false (and counts nothing) when the slot was
  /// not built. Single-writer: no concurrent reader may hold a
  /// reference obtained from get().
  bool reset() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.load(std::memory_order_relaxed)) return false;
    ready_.store(false, std::memory_order_release);
    value_.reset();
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Mutate a built value in place (incremental maintenance). Returns
  /// false when the slot is cold -- the caller should then leave it to
  /// the next full build. Single-writer, like reset().
  template <typename Update>
  bool update(const Update& apply) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.load(std::memory_order_relaxed)) return false;
    apply(*value_);
    incremental_updates_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Counter snapshot; `bytes_of` is only invoked on a currently-built
  /// value, so reported bytes shrink back to zero after a reset.
  template <typename BytesOf>
  ArtifactStats stats(const char* name, const BytesOf& bytes_of) const {
    ArtifactStats s;
    s.name = name;
    s.builds = builds_.load(std::memory_order_relaxed);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    s.incremental_updates =
        incremental_updates_.load(std::memory_order_relaxed);
    s.build_seconds = build_seconds_;
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.load(std::memory_order_relaxed)) s.bytes = bytes_of(*value_);
    return s;
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::optional<T> value_;
  mutable double build_seconds_ = 0.0;
  mutable std::atomic<count_t> builds_{0};
  mutable std::atomic<count_t> hits_{0};
  mutable std::atomic<count_t> invalidations_{0};
  mutable std::atomic<count_t> incremental_updates_{0};
};

}  // namespace detail

class AnalysisContext {
 public:
  /// Take ownership of the (immutable) hypergraph under analysis.
  explicit AnalysisContext(Hypergraph h) : hypergraph_(std::move(h)) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Hypergraph& hypergraph() const { return hypergraph_; }

  /// Dual hypergraph H* (see core/dual.hpp).
  const Hypergraph& dual() const;

  /// Clique expansion of the protein-interaction graph.
  const graph::Graph& clique_projection() const;

  /// Star expansion with the default (highest-degree member) baits.
  const graph::Graph& star_projection() const;

  /// The bait choice star_projection() was built with.
  const std::vector<index_t>& star_baits() const;

  /// Unweighted complex intersection graph (s = 1).
  const graph::Graph& intersection_projection() const;

  /// Connected components of the bipartite incidence structure.
  const HyperComponents& components() const;

  /// Histogram of vertex degrees (Fig. 1 input).
  const Histogram& vertex_degree_histogram() const;

  /// Histogram of hyperedge cardinalities.
  const Histogram& edge_size_histogram() const;

  /// Pairwise hyperedge overlap table (per-pair overlaps, d2 rows; the
  /// s-overlap census reads it).
  const OverlapTable& overlaps() const;

  /// Reduced hypergraph (non-maximal hyperedges removed) with parent
  /// id maps.
  const SubHypergraph& reduced() const;

  /// Full k-core decomposition (PR-1 peel substrate underneath).
  const HyperCoreResult& cores() const;

  /// Substrate counters captured while cores() was built; forces the
  /// core decomposition if it has not run yet.
  const PeelStats& core_peel_stats() const;

  /// Table-1 style structural summary; shares components() instead of
  /// rebuilding it. Delta_2,F is a count-only pass (max_edge_degree2),
  /// so the summary never builds overlaps().
  const HypergraphSummary& summary() const;

  /// Exact all-pairs path statistics (diameter, average length).
  const HyperPathSummary& paths() const;

  /// Storage comparison of the four representations, assembled from the
  /// cached projections (same numbers as hyper::representation_costs).
  RepresentationCosts representation_costs() const;

  /// Build every artifact the report reads eagerly, fanning the
  /// independent slots out across the shared pool (src/par/) via a
  /// TaskGroup. The overlap table is not among them: only soverlap reads
  /// it, and builds it on demand. The summary, which depends on
  /// components, is built after the fan-out, when its input is already
  /// warm. Safe to call concurrently with readers: the per-slot
  /// once_flags still guarantee exactly-once construction. At
  /// HP_THREADS=1 this runs every build inline, in declaration order.
  void prefetch() const;

  /// Swap in a new hypergraph, resetting every *built* slot (each reset
  /// counts an invalidation; cold slots stay untouched, so artifacts
  /// nobody asked for stay free). This is the per-slot alternative to
  /// tearing the whole context down: counters, build times and the
  /// slots' identities survive. Single-writer -- callers must hold no
  /// artifact references across a rebase. Returns the number of slots
  /// reset.
  index_t rebase(Hypergraph h);

  /// Snapshot of every slot's build/hit counters.
  ContextStats stats() const;

 private:
  Hypergraph hypergraph_;

  detail::ArtifactSlot<Hypergraph> dual_;
  detail::ArtifactSlot<graph::Graph> clique_;
  detail::ArtifactSlot<std::vector<index_t>> star_baits_;
  detail::ArtifactSlot<graph::Graph> star_;
  detail::ArtifactSlot<graph::Graph> intersection_;
  detail::ArtifactSlot<HyperComponents> components_;
  detail::ArtifactSlot<Histogram> vertex_degree_histogram_;
  detail::ArtifactSlot<Histogram> edge_size_histogram_;
  detail::ArtifactSlot<OverlapTable> overlaps_;
  detail::ArtifactSlot<SubHypergraph> reduced_;
  detail::ArtifactSlot<HyperCoreResult> cores_;
  detail::ArtifactSlot<HypergraphSummary> summary_;
  detail::ArtifactSlot<HyperPathSummary> paths_;

  /// Written exactly once, inside the cores_ build (under its
  /// once_flag), read only after cores() returned.
  mutable PeelStats peel_stats_;
};

}  // namespace hp::hyper
