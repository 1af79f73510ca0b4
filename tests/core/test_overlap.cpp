#include "core/overlap.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

TEST(OverlapTable, PairwiseCounts) {
  const Hypergraph h = testing::toy_hypergraph();
  const OverlapTable t{h};
  // e0 = {0,1,2,3}, e1 = {2,3,4}: share {2,3}.
  EXPECT_EQ(t.overlap(0, 1), 2u);
  EXPECT_EQ(t.overlap(1, 0), 2u);
  // e0 and e2 = {4,5}: disjoint.
  EXPECT_EQ(t.overlap(0, 2), 0u);
  // e0 inside e4: overlap = |e0| = 4.
  EXPECT_EQ(t.overlap(0, 4), 4u);
  // Self-overlap defined as 0.
  EXPECT_EQ(t.overlap(1, 1), 0u);
}

TEST(OverlapTable, Degree2Counts) {
  const Hypergraph h = testing::toy_hypergraph();
  const OverlapTable t{h};
  // e1 = {2,3,4} overlaps e0, e2, e4.
  EXPECT_EQ(t.degree2(1), 3u);
  // e3 = {5} overlaps only e2.
  EXPECT_EQ(t.degree2(3), 1u);
  EXPECT_EQ(t.max_degree2(), 3u);
}

TEST(OverlapTable, MatchesBruteForceOnRandomInputs) {
  Rng rng{2718};
  for (int trial = 0; trial < 6; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 18, 15, 6);
    const OverlapTable t{h};
    for (index_t f = 0; f < h.num_edges(); ++f) {
      for (index_t g = 0; g < h.num_edges(); ++g) {
        if (f == g) continue;
        const auto fv = h.vertices_of(f);
        const auto gv = h.vertices_of(g);
        std::vector<index_t> inter;
        std::set_intersection(fv.begin(), fv.end(), gv.begin(), gv.end(),
                              std::back_inserter(inter));
        EXPECT_EQ(t.overlap(f, g), inter.size())
            << "trial " << trial << " pair (" << f << "," << g << ")";
      }
    }
  }
}

TEST(OverlapTable, EmptyHypergraph) {
  const OverlapTable t{HypergraphBuilder{0}.build()};
  EXPECT_EQ(t.max_degree2(), 0u);
  EXPECT_EQ(t.num_edges(), 0u);
}

TEST(MaxEdgeDegree2, ToyAndEmpty) {
  EXPECT_EQ(max_edge_degree2(testing::toy_hypergraph()), 3u);
  EXPECT_EQ(max_edge_degree2(HypergraphBuilder{0}.build()), 0u);
  EXPECT_EQ(max_edge_degree2(HypergraphBuilder{4}.build()), 0u);
}

TEST(MaxEdgeDegree2, MatchesTableOnEdgeCases) {
  HypergraphBuilder disjoint{7};  // vertex 6 isolated
  disjoint.add_edge({0, 1});
  disjoint.add_edge({2, 3, 4});
  disjoint.add_edge({5});
  const Hypergraph pairwise_disjoint = disjoint.build();
  EXPECT_EQ(max_edge_degree2(pairwise_disjoint), 0u);

  HypergraphBuilder dup{6};  // vertex 5 isolated
  dup.add_edge({0, 1, 2});
  dup.add_edge({0, 1, 2});
  dup.add_edge({0, 1, 2});
  dup.add_edge({2, 3});
  dup.add_edge({4});
  const Hypergraph duplicates = dup.build();
  EXPECT_EQ(max_edge_degree2(duplicates), 3u);  // e2 meets e0, e1, e3

  for (const Hypergraph* h : {&pairwise_disjoint, &duplicates}) {
    EXPECT_EQ(max_edge_degree2(*h), OverlapTable{*h}.max_degree2());
  }
}

TEST(MaxEdgeDegree2, MatchesTableOnRandomInputs) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng{seed};
    // More vertices than pins leaves some isolated on small instances.
    const index_t nv = 5 + static_cast<index_t>(seed % 60);
    const index_t ne = static_cast<index_t>(seed % 40);
    const Hypergraph h = testing::random_hypergraph(rng, nv, ne, 8);
    EXPECT_EQ(max_edge_degree2(h), OverlapTable{h}.max_degree2())
        << "seed " << seed;
  }
}

TEST(VertexDegree2, ToyValues) {
  const Hypergraph h = testing::toy_hypergraph();
  const auto d2 = vertex_degree2(h);
  // Vertex 0 is in e0 {0,1,2,3} and e4 {0,1,2,3,6}: co-members {1,2,3,6}.
  EXPECT_EQ(d2[0], 4u);
  // Vertex 4 in e1 {2,3,4} and e2 {4,5}: co-members {2,3,5}.
  EXPECT_EQ(d2[4], 3u);
  // Vertex 6 only in e4: co-members {0,1,2,3}.
  EXPECT_EQ(d2[6], 4u);
}

TEST(VertexDegree2, IsolatedVertexIsZero) {
  HypergraphBuilder b{3};
  b.add_edge({0, 1});
  EXPECT_EQ(vertex_degree2(b.build())[2], 0u);
}

}  // namespace
}  // namespace hp::hyper
