// Instrumentation counters for the peeling substrate.
//
// The paper's complexity claim for the k-core algorithm is
// O(|E| (Delta_2,F + Delta_V log Delta_2,F)): the first term pays for
// overlap maintenance, the second for containment detection. PeelStats
// makes the peel's actual work observable: every algorithm built on the
// substrate reports how many containment probes, deletions, rounds and
// frontier entries it actually used, so the cost can be checked
// empirically (bench_micro_kcore, bench_table1_cores) instead of
// trusted.
//
// Invariants maintained by the substrate (asserted by
// tests/core/test_peel_substrate.cpp):
//   * containment_probes >= cascaded_edge_deletions -- an edge is only
//     deleted mid-peel after a probe found a container (or found the
//     edge empty, which counts as one probe);
//   * vertex_deletions <= |V| and edge_deletions <= |F|.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "util/common.hpp"

namespace hp::hyper {

struct PeelStats {
  /// Single (f,g) overlap-entry decrements. Always 0 on the k-core
  /// path: the bulk peel recounts the overlaps of the edges a round
  /// shrank instead of maintaining a pairwise table. Kept so the
  /// "peel.overlap_decrements" metric keeps its name for readers.
  count_t overlap_decrements = 0;
  /// Per-candidate overlap counter bumps examined while testing edges
  /// for containment.
  count_t containment_probes = 0;
  /// Vertices removed from the residual hypergraph.
  count_t vertex_deletions = 0;
  /// Hyperedges removed, including the initial (level-0) reduction.
  count_t edge_deletions = 0;
  /// Hyperedges removed during a level >= 1 peel, i.e. deletions
  /// cascading from vertex removals rather than input non-maximality.
  count_t cascaded_edge_deletions = 0;
  /// Peel rounds: bulk frontier rounds of the k-core peel, one per
  /// cascade step of a level.
  count_t peel_rounds = 0;
  /// Largest frontier population observed.
  count_t peak_queue_length = 0;
  /// Frontier-engine entries pushed: lazy bucket inserts (one per degree
  /// drop plus the initial fill), per-lane bag appends, and heap pushes
  /// by the measure-driven peel. Bounded by |pins| + |V| per run.
  count_t frontier_pushes = 0;
  /// Frontier entries discarded as stale at drain/pop time (vertex
  /// already dead, duplicate of an entry seen this level, or a lazy
  /// heap key that no longer matches). wasted <= pushes always.
  count_t frontier_wasted = 0;
  /// Bounded subcore repairs performed by incremental core maintenance
  /// (core/mutate/): each repair re-peels only the components reachable
  /// from the dirty region.
  count_t repairs = 0;
  /// Repairs that escalated to a full re-peel because the affected
  /// region exceeded the repair threshold.
  count_t repair_fallbacks = 0;
  /// Vertices / edges re-peeled across all bounded repairs (the
  /// "repair size" -- compare against |V| / |F| to see the savings).
  count_t repaired_vertices = 0;
  count_t repaired_edges = 0;

  void note_queue_length(count_t length) {
    if (length > peak_queue_length) peak_queue_length = length;
  }

  PeelStats& operator+=(const PeelStats& other) {
    overlap_decrements += other.overlap_decrements;
    containment_probes += other.containment_probes;
    vertex_deletions += other.vertex_deletions;
    edge_deletions += other.edge_deletions;
    cascaded_edge_deletions += other.cascaded_edge_deletions;
    peel_rounds += other.peel_rounds;
    note_queue_length(other.peak_queue_length);
    frontier_pushes += other.frontier_pushes;
    frontier_wasted += other.frontier_wasted;
    repairs += other.repairs;
    repair_fallbacks += other.repair_fallbacks;
    repaired_vertices += other.repaired_vertices;
    repaired_edges += other.repaired_edges;
    return *this;
  }
};

/// Flat "peel.*" metric samples -- the struct viewed as registry-style
/// counters, consumed by the shared obs exporters.
obs::MetricsSnapshot to_metrics(const PeelStats& stats);

/// Accumulate the totals into the global obs registry ("peel.*"
/// counters add up across peels; the peak queue length is a gauge).
/// core_decomposition calls this once per run.
void publish_metrics(const PeelStats& stats);

/// Multi-line human-readable rendering (CLI --peel-stats, benches);
/// formats through obs::render_table, the shared metrics table
/// exporter.
std::string to_string(const PeelStats& stats);

}  // namespace hp::hyper
