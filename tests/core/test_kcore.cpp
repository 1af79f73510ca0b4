#include "core/kcore.hpp"

#include <gtest/gtest.h>

#include "core/reduce.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

/// Hypergraph with a planted 2-core: edges e0..e2 pairwise overlapping on
/// vertices {0,1,2}, each of which lies in >= 2 of them, plus a pendant
/// tail that peels away.
Hypergraph planted_two_core() {
  HypergraphBuilder b{7};
  b.add_edge({0, 1, 3});  // e0
  b.add_edge({1, 2, 4});  // e1
  b.add_edge({0, 2, 5});  // e2
  b.add_edge({5, 6});     // e3: tail
  return b.build();
}

TEST(HyperKCore, EmptyHypergraph) {
  const HyperCoreResult r = core_decomposition(HypergraphBuilder{0}.build());
  EXPECT_EQ(r.max_core, 0u);
  EXPECT_EQ(r.level_vertices.size(), 1u);
  EXPECT_EQ(r.level_vertices[0], 0u);
}

TEST(HyperKCore, SingleEdgeIsOneCore) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1, 2});
  const HyperCoreResult r = core_decomposition(b.build());
  EXPECT_EQ(r.max_core, 1u);
  EXPECT_EQ(r.core_vertices(1).size(), 3u);
  EXPECT_EQ(r.core_edges(1).size(), 1u);
}

TEST(HyperKCore, IsolatedVertexHasCoreZero) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1});
  const HyperCoreResult r = core_decomposition(b.build());
  EXPECT_EQ(r.vertex_core[2], 0u);
  EXPECT_EQ(r.vertex_core[0], 1u);
}

TEST(HyperKCore, PlantedTwoCore) {
  const HyperCoreResult r = core_decomposition(planted_two_core());
  EXPECT_EQ(r.max_core, 2u);
  EXPECT_EQ(r.core_vertices(2), (std::vector<index_t>{0, 1, 2}));
  // All three overlapping edges survive at level 2 (they shrink to pairs
  // {0,1}, {1,2}, {0,2} -- distinct, so all maximal).
  EXPECT_EQ(r.core_edges(2).size(), 3u);
  // Tail vertices have core 1.
  EXPECT_EQ(r.vertex_core[5], 1u);
  EXPECT_EQ(r.vertex_core[6], 1u);
}

TEST(HyperKCore, NonMaximalEdgeRemovedAtLevelZero) {
  const Hypergraph h = testing::toy_hypergraph();
  const HyperCoreResult r = core_decomposition(h);
  // e0 (inside e4) and e3 (inside e2) are gone before level 1.
  EXPECT_EQ(r.edge_core[0], 0u);
  EXPECT_EQ(r.edge_core[3], 0u);
  EXPECT_EQ(r.level_edges[0], 3u);
}

TEST(HyperKCore, ContainmentCreatedDuringPeelCascades) {
  // e0 = {0,1,3} and e1 = {0,1,2} are incomparable, so the initial
  // reduction keeps both. At k = 2 the degree-1 vertices 2 and 3 are
  // removed, both edges shrink to {0,1} and become duplicates; one is
  // deleted, the degrees of 0 and 1 drop to 1, and everything peels:
  // the 2-core is empty even though 0 and 1 started with degree 2.
  HypergraphBuilder b{4};
  b.add_edge({0, 1, 3});
  b.add_edge({0, 1, 2});
  const HyperCoreResult r = core_decomposition(b.build());
  EXPECT_EQ(r.max_core, 1u);
  EXPECT_EQ(r.vertex_core[0], 1u);
  EXPECT_EQ(r.vertex_core[2], 1u);
  // Exactly one of the two edges survived into the 1-core.
  EXPECT_EQ(r.level_edges[1], 2u);  // both alive at level 1
}

TEST(HyperKCore, DeepCoreFromCompleteIncidence) {
  // 5 vertices, all C(5,3) = 10 triples as hyperedges: every vertex is
  // in C(4,2) = 6 edges; no triple contains another. The whole thing is
  // reduced and is a 6-core? Peeling shows where it lands.
  HypergraphBuilder b{5};
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = i + 1; j < 5; ++j) {
      for (index_t k = j + 1; k < 5; ++k) {
        b.add_edge({i, j, k});
      }
    }
  }
  const HyperCoreResult r = core_decomposition(b.build());
  // Every vertex has degree 6 with a fully symmetric structure, so the
  // 6-core is the whole hypergraph; at level 7 everything collapses.
  EXPECT_EQ(r.max_core, 6u);
  EXPECT_EQ(r.core_vertices(6).size(), 5u);
  EXPECT_EQ(r.core_edges(6).size(), 10u);
}

TEST(HyperKCore, LevelSizesAreMonotone) {
  Rng rng{999};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 50, 6);
  const HyperCoreResult r = core_decomposition(h);
  for (std::size_t k = 1; k < r.level_vertices.size(); ++k) {
    EXPECT_LE(r.level_vertices[k], r.level_vertices[k - 1]);
    EXPECT_LE(r.level_edges[k], r.level_edges[k - 1]);
  }
}

TEST(HyperKCore, LevelCountsMatchCoreNumbers) {
  Rng rng{1234};
  const Hypergraph h = testing::random_hypergraph(rng, 30, 40, 5);
  const HyperCoreResult r = core_decomposition(h);
  for (index_t k = 1; k <= r.max_core; ++k) {
    EXPECT_EQ(r.core_vertices(k).size(), r.level_vertices[k]);
    EXPECT_EQ(r.core_edges(k).size(), r.level_edges[k]);
  }
}

TEST(HyperKCore, ExtractedCoreSatisfiesDefinition) {
  Rng rng{4321};
  for (int trial = 0; trial < 8; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 25, 35, 5);
    const HyperCoreResult r = core_decomposition(h);
    for (index_t k = 1; k <= r.max_core; ++k) {
      const SubHypergraph core = extract_core(h, r, k);
      EXPECT_TRUE(satisfies_core_conditions(core.hypergraph, k))
          << "trial " << trial << " level " << k;
    }
  }
}

TEST(HyperKCore, MaxCorePlusOneIsEmpty) {
  Rng rng{777};
  const Hypergraph h = testing::random_hypergraph(rng, 30, 45, 5);
  const HyperCoreResult r = core_decomposition(h);
  EXPECT_TRUE(r.core_vertices(r.max_core + 1).empty());
}

TEST(HyperKCore, DuplicateInputEdgesKeepOneRepresentative) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({1, 2, 3});
  const HyperCoreResult r = core_decomposition(b.build());
  // After reduction only one copy of {0,1,2} remains.
  EXPECT_EQ(r.level_edges[0], 2u);
}

TEST(HyperKCore, IdenticalInputEdgesKeepLowestId) {
  // Regression: the retired sequential engine kept e1 here, while the
  // naive reference keeps e0. The contract is lowest id survives.
  HypergraphBuilder b{2};
  b.add_edge({0, 1});
  b.add_edge({0, 1});
  const HyperCoreResult r = core_decomposition(b.build());
  EXPECT_EQ(r.in_reduced, (std::vector<char>{1, 0}));
  EXPECT_EQ(r.edge_core, (std::vector<index_t>{1, 0}));
}

TEST(HyperKCore, EdgesIdenticalMidPeelKeepLowestId) {
  // e0 = {0,1,3} and e1 = {0,1,2} are incomparable until the k = 2 peel
  // removes vertices 2 and 3; both shrink to {0,1} in the same round.
  // The lower id survives into the 2-core {0,1,5} (a triangle with e2,
  // e3), so it keeps the higher edge core.
  HypergraphBuilder b{6};
  b.add_edge({0, 1, 3});  // e0
  b.add_edge({0, 1, 2});  // e1
  b.add_edge({0, 5});     // e2
  b.add_edge({1, 5});     // e3
  const HyperCoreResult r = core_decomposition(b.build());
  EXPECT_EQ(r.max_core, 2u);
  EXPECT_EQ(r.core_vertices(2), (std::vector<index_t>{0, 1, 5}));
  EXPECT_EQ(r.edge_core, (std::vector<index_t>{2, 1, 2, 2}));
}

TEST(SatisfiesCoreConditions, RejectsViolations) {
  // Degree violation.
  HypergraphBuilder a{3};
  a.add_edge({0, 1});
  a.add_edge({1, 2});
  EXPECT_FALSE(satisfies_core_conditions(a.build(), 2));
  EXPECT_TRUE(satisfies_core_conditions(a.build(), 1));
  // Reducedness violation.
  HypergraphBuilder c{3};
  c.add_edge({0, 1});
  c.add_edge({0, 1, 2});
  EXPECT_FALSE(satisfies_core_conditions(c.build(), 1));
}

// The peel runs on the shared pool; one lane is the serial path and
// every lane cap must give the same bytes.

HyperCoreResult with_lanes(const Hypergraph& h, int lanes) {
  par::LaneLimit limit{lanes};
  return core_decomposition(h);
}

TEST(ParallelKCore, EmptyAndTrivial) {
  HypergraphBuilder b{2};
  b.add_edge({0, 1});
  const Hypergraph one_edge = b.build();
  for (int lanes : {1, 4}) {
    EXPECT_EQ(with_lanes(HypergraphBuilder{0}.build(), lanes).max_core, 0u);
    EXPECT_EQ(with_lanes(one_edge, lanes).max_core, 1u);
  }
}

TEST(ParallelKCore, ThreadCountDoesNotChangeResult) {
  Rng rng{31337};
  for (int trial = 0; trial < 4; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 60, 80, 6);
    const HyperCoreResult serial = with_lanes(h, 1);
    testing::expect_same_cores(serial, with_lanes(h, 2), "2 lanes");
    testing::expect_same_cores(serial, with_lanes(h, 4), "4 lanes");
  }
}

TEST(ParallelKCore, EdgeRepresentativeIsLowestId) {
  // Two edges shrink to the same residual set in the same round; the
  // lower id survives at every lane count.
  HypergraphBuilder b{4};
  b.add_edge({0, 1, 2});  // e0
  b.add_edge({0, 1, 3});  // e1
  const Hypergraph h = b.build();
  for (int lanes : {1, 4}) {
    const HyperCoreResult r = with_lanes(h, lanes);
    // At k = 2: vertices 2 and 3 peel, e0 and e1 both become {0,1};
    // e1 (higher id) is deleted at level 2 (edge_core 1), e0 peels later.
    EXPECT_EQ(r.max_core, 1u);
    EXPECT_EQ(r.edge_core[1], 1u);
  }
}

TEST(ParallelKCore, ExtractedCoreIsValid) {
  Rng rng{71};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 60, 5);
  const HyperCoreResult r = with_lanes(h, 4);
  for (index_t k = 1; k <= r.max_core; ++k) {
    const SubHypergraph core = extract_core(h, r, k);
    EXPECT_TRUE(satisfies_core_conditions(core.hypergraph, k)) << k;
  }
}

}  // namespace
}  // namespace hp::hyper
