// Differential battery for the frontier peeling engine
// (core/peel/frontier.hpp).
//
// Contract under test: the frontier plumbing (lazy degree-bucket level
// seeds, per-lane drop bags and atomic decrements within a level) is a
// drop-in replacement for rescanning |V| every round.
// core_decomposition and its scan twin core_decomposition_scan must be
// FULLY bit-identical (vertex_core, edge_core, in_reduced, levels,
// max_core), and both must equal the naive set-comparison oracle.
//
// The 50-seed sweep runs the adversarial fuzz generator so every
// structural regime (nested chains, duplicate chains, near-cliques,
// power-law hubs, ...) exercises the bucket/bag plumbing; the pinned
// cases cover the classic frontier traps (empty input, all-duplicate
// edges, star hub, one giant edge). The suite name is wired into
// HP_PAR_SUITE_FILTER, so the whole file re-runs at HP_THREADS=1 and
// HP_THREADS=16 and under TSan in CI.
#include <gtest/gtest.h>

#include "check/generator.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

/// The engine-vs-scan battery for one input.
void check_engines(const Hypergraph& h, const std::string& label) {
  PeelStats frontier_stats;
  const HyperCoreResult frontier = core_decomposition(h, &frontier_stats);
  testing::expect_same_cores(frontier, core_decomposition_scan(h),
                             label + ": frontier vs scan");
  testing::expect_same_cores(frontier, core_decomposition_naive(h),
                             label + ": frontier vs naive");

  // The lazy engine's accounting invariant: every wasted entry was
  // pushed first, and the buckets are filled once per vertex at least.
  EXPECT_LE(frontier_stats.frontier_wasted, frontier_stats.frontier_pushes)
      << label;
  if (h.num_vertices() > 0) {
    EXPECT_GE(frontier_stats.frontier_pushes, h.num_vertices()) << label;
  }
}

class FrontierPeel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontierPeel, AdversarialShapeSweep) {
  // The fuzz generator's structural regimes (shape = seed % kNumShapes),
  // including the duplicate-chain reduction stressor.
  const Hypergraph h = check::generate(GetParam());
  check_engines(h, "fuzz seed " + std::to_string(GetParam()));
}

TEST_P(FrontierPeel, RandomSweep) {
  Rng rng{GetParam() * 0x9e3779b97f4a7c15ULL + 17};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 70, 6);
  check_engines(h, "random seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierPeel,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{51}));

TEST(FrontierPeel, EmptyHypergraph) {
  check_engines(HypergraphBuilder{0}.build(), "empty");
}

TEST(FrontierPeel, VerticesWithoutEdges) {
  check_engines(HypergraphBuilder{7}.build(), "edgeless");
}

TEST(FrontierPeel, AllDuplicateEdges) {
  // Reduction collapses everything to one representative; level seeds
  // then drain almost the whole bucket fill at k=1.
  HypergraphBuilder b{5};
  for (int i = 0; i < 8; ++i) b.add_edge({0, 1, 2, 3, 4});
  check_engines(b.build(), "all-duplicates");
}

TEST(FrontierPeel, StarHub) {
  // One hub in every edge: deleting leaves cascades degree drops onto
  // the hub repeatedly -- the regime with maximal stale bucket entries.
  HypergraphBuilder b{11};
  for (index_t i = 1; i < 11; ++i) b.add_edge({0, i});
  check_engines(b.build(), "star");
}

TEST(FrontierPeel, SingleGiantEdge) {
  HypergraphBuilder b{12};
  b.add_edge({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  check_engines(b.build(), "giant edge");
}

TEST(FrontierPeel, DuplicateChain) {
  // The quadratic-fixpoint stressor: nested prefixes, each duplicated.
  HypergraphBuilder b{6};
  for (index_t take = 1; take <= 6; ++take) {
    const std::vector<index_t> prefix = [&] {
      std::vector<index_t> p;
      for (index_t v = 0; v < take; ++v) p.push_back(v);
      return p;
    }();
    b.add_edge(prefix);
    b.add_edge(prefix);
    b.add_edge(prefix);
  }
  check_engines(b.build(), "duplicate chain");
}

TEST(FrontierPeel, PaperToy) {
  check_engines(testing::toy_hypergraph(), "toy");
}

}  // namespace
}  // namespace hp::hyper
