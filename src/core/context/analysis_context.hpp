// AnalysisContext: the memoized derived-artifact layer.
//
// Every result the paper reports (Table 1, the §2 small-world numbers,
// §3 cores, §4 covers) is read from the same handful of derived
// structures -- connected components, the vertex-degree and edge-size
// histograms, the core decomposition, the structural summary and the
// path statistics -- plus the pairwise overlap table the s-overlap
// census reads. An AnalysisContext owns one immutable Hypergraph and
// lazily computes, caches, and shares those artifacts behind a single
// API, so the CLI, the server and bio::paper_report stop rebuilding
// them independently. The graph projections, the dual and the reduced
// hypergraph are not cached here: only the bench drivers compare them,
// and they call the free functions (core/projection.hpp, core/dual.hpp,
// core/reduce.hpp) directly.
//
// Concurrency: each slot is guarded by its own mutex with an atomic
// ready flag fast path, so concurrent readers racing on a cold slot
// build it exactly once and everyone blocks until the value is ready.
// Slots may depend on one another (summary pulls components); the
// dependency graph is acyclic, so nested builds cannot deadlock.
// Counter updates are relaxed atomics -- ContextStats snapshots are
// advisory, the cached references are what carry the synchronization.
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
#include "core/stats.hpp"
#include "core/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/histogram.hpp"
#include "util/timer.hpp"

namespace hp::hyper {

namespace detail {

/// One memoized artifact: built on first access (exactly once), then
/// served by const reference. The first access counts as the build;
/// every later access counts as a hit. The build runs under a trace
/// span named `trace_name` (a literal, e.g. "context.build.summary")
/// and records its latency into the "context.build_ns" histogram, so
/// every artifact construction is visible on the obs timeline.
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

  /// Counter snapshot; `bytes_of` is only invoked on a built value, so
  /// a slot nobody asked for reports zero bytes.
  template <typename BytesOf>
  ArtifactStats stats(const char* name, const BytesOf& bytes_of) const {
    ArtifactStats s;
    s.name = name;
    s.builds = builds_.load(std::memory_order_relaxed);
    s.hits = hits_.load(std::memory_order_relaxed);
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
};

}  // namespace detail

class AnalysisContext {
 public:
  /// Take ownership of the (immutable) hypergraph under analysis.
  explicit AnalysisContext(Hypergraph h) : hypergraph_(std::move(h)) {}

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Hypergraph& hypergraph() const { return hypergraph_; }

  /// Connected components of the bipartite incidence structure.
  const HyperComponents& components() const;

  /// Histogram of vertex degrees (Fig. 1 input).
  const Histogram& vertex_degree_histogram() const;

  /// Histogram of hyperedge cardinalities.
  const Histogram& edge_size_histogram() const;

  /// Pairwise hyperedge overlap table (per-pair overlaps, d2 rows; the
  /// s-overlap census reads it).
  const OverlapTable& overlaps() const;

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

  /// Build every artifact the report reads eagerly, fanning the
  /// independent slots out across the shared pool (src/par/) via a
  /// TaskGroup. The overlap table is not among them: only soverlap reads
  /// it, and builds it on demand. The summary, which depends on
  /// components, is built after the fan-out, when its input is already
  /// warm. Safe to call concurrently with readers: each slot still
  /// builds exactly once. At HP_THREADS=1 this runs every build inline,
  /// in declaration order.
  void prefetch() const;

  /// Snapshot of every slot's build/hit counters.
  ContextStats stats() const;

 private:
  Hypergraph hypergraph_;

  detail::ArtifactSlot<HyperComponents> components_;
  detail::ArtifactSlot<Histogram> vertex_degree_histogram_;
  detail::ArtifactSlot<Histogram> edge_size_histogram_;
  detail::ArtifactSlot<OverlapTable> overlaps_;
  detail::ArtifactSlot<HyperCoreResult> cores_;
  detail::ArtifactSlot<HypergraphSummary> summary_;
  detail::ArtifactSlot<HyperPathSummary> paths_;

  /// Written exactly once, inside the cores_ build (under the slot's
  /// mutex), read only after cores() returned.
  mutable PeelStats peel_stats_;
};

}  // namespace hp::hyper
