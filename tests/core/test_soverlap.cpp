#include "core/soverlap.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/projection.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

/// e0 = {0,1,2,3}, e1 = {2,3,4}, e2 = {4,5}, e3 = {5}, e4 = {0,1,2,3,6}
/// Overlaps: (e0,e1)=2, (e0,e4)=4, (e1,e2)=1, (e1,e4)=2, (e2,e3)=1.
Hypergraph toy() { return testing::toy_hypergraph(); }

TEST(SIntersection, SOneMatchesPaperIntersectionGraph) {
  const graph::Graph s1 = s_intersection_graph(toy(), 1);
  const graph::Graph paper = intersection_graph(toy());
  ASSERT_EQ(s1.num_vertices(), paper.num_vertices());
  EXPECT_EQ(s1.num_edges(), paper.num_edges());
  for (index_t u = 0; u < s1.num_vertices(); ++u) {
    for (index_t v = u + 1; v < s1.num_vertices(); ++v) {
      EXPECT_EQ(s1.has_edge(u, v), paper.has_edge(u, v))
          << u << "," << v;
    }
  }
}

TEST(SIntersection, HigherSPrunesWeakTies) {
  const graph::Graph s2 = s_intersection_graph(toy(), 2);
  EXPECT_TRUE(s2.has_edge(0, 1));   // share {2,3}
  EXPECT_TRUE(s2.has_edge(0, 4));   // share 4 proteins
  EXPECT_TRUE(s2.has_edge(1, 4));
  EXPECT_FALSE(s2.has_edge(1, 2));  // share only vertex 4
  EXPECT_FALSE(s2.has_edge(2, 3));

  const graph::Graph s4 = s_intersection_graph(toy(), 4);
  EXPECT_EQ(s4.num_edges(), 1u);  // only (e0, e4)
}

TEST(SIntersection, EdgeCountMonotoneInS) {
  Rng rng{9};
  const Hypergraph h = testing::random_hypergraph(rng, 25, 30, 6);
  count_t prev = ~count_t{0};
  for (index_t s = 1; s <= 5; ++s) {
    const count_t m = s_intersection_graph(h, s).num_edges();
    EXPECT_LE(m, prev);
    prev = m;
  }
}

TEST(SIntersection, RejectsZeroS) {
  EXPECT_THROW(s_intersection_graph(toy(), 0), InvalidInputError);
}

TEST(SComponents, ToyStructure) {
  // s = 1: {e0,e1,e2,e3,e4} all linked -> 1 component.
  EXPECT_EQ(s_components(toy(), 1).count, 1u);
  // s = 2: {e0,e1,e4} together; e2 and e3 isolated -> 3 components.
  const SComponents c2 = s_components(toy(), 2);
  EXPECT_EQ(c2.count, 3u);
  EXPECT_EQ(c2.sizes[c2.largest()], 3u);
  EXPECT_EQ(c2.label[0], c2.label[1]);
  EXPECT_EQ(c2.label[0], c2.label[4]);
  EXPECT_NE(c2.label[0], c2.label[2]);
}

TEST(SDistances, WalksRespectThreshold) {
  // At s = 1: e3 - e2 - e1 - e0 is a walk; d(e3, e0) = 3.
  const auto d1 = s_distances(toy(), 3, 1);
  EXPECT_EQ(d1[2], 1u);
  EXPECT_EQ(d1[1], 2u);
  EXPECT_EQ(d1[0], 3u);
  // At s = 2 e3 is isolated.
  const auto d2 = s_distances(toy(), 3, 2);
  EXPECT_EQ(d2[0], kInvalidIndex);
  EXPECT_EQ(d2[3], 0u);
}

TEST(SPathSummary, ShrinksWithS) {
  Rng rng{21};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 40, 6);
  const SPathSummary p1 = s_path_summary(h, 1);
  const SPathSummary p2 = s_path_summary(h, 2);
  EXPECT_LE(p2.connected_pairs, p1.connected_pairs);
}

TEST(MaxMeaningfulS, ToyAndEdgeCases) {
  EXPECT_EQ(max_meaningful_s(toy()), 4u);  // |e0 ∩ e4| = 4
  HypergraphBuilder disjoint{4};
  disjoint.add_edge({0, 1});
  disjoint.add_edge({2, 3});
  EXPECT_EQ(max_meaningful_s(disjoint.build()), 0u);
  EXPECT_EQ(max_meaningful_s(HypergraphBuilder{0}.build()), 0u);
}

TEST(SIntersection, AboveMaxMeaningfulSIsEmpty) {
  Rng rng{31};
  const Hypergraph h = testing::random_hypergraph(rng, 20, 20, 5);
  const index_t s_max = max_meaningful_s(h);
  if (s_max > 0) {
    EXPECT_GT(s_intersection_graph(h, s_max).num_edges(), 0u);
  }
  EXPECT_EQ(s_intersection_graph(h, s_max + 1).num_edges(), 0u);
}

/// The census must equal the per-s definitions row for row.
void expect_census_matches_per_s(const Hypergraph& h) {
  const OverlapTable table{h};
  const std::vector<SOverlapRow> census = s_overlap_census(table);
  const index_t s_max = max_meaningful_s(table);
  ASSERT_EQ(census.size(), s_max);
  for (index_t s = 1; s <= s_max; ++s) {
    const SOverlapRow& row = census[s - 1];
    const SComponents comp = s_components(table, s);
    EXPECT_EQ(row.s, s);
    EXPECT_EQ(row.components, comp.count) << "s = " << s;
    EXPECT_EQ(row.largest, comp.sizes[comp.largest()]) << "s = " << s;
    EXPECT_EQ(row.edges, s_intersection_graph(table, s).num_edges())
        << "s = " << s;
  }
}

TEST(SOverlapCensus, ToyRows) {
  const std::vector<SOverlapRow> census =
      s_overlap_census(OverlapTable{toy()});
  ASSERT_EQ(census.size(), 4u);
  // s = 2: {e0,e1,e4} plus isolated e2, e3; pairs (0,1) (0,4) (1,4).
  EXPECT_EQ(census[1].components, 3u);
  EXPECT_EQ(census[1].largest, 3u);
  EXPECT_EQ(census[1].edges, 3u);
  // s = 4: only (e0, e4).
  EXPECT_EQ(census[3].components, 4u);
  EXPECT_EQ(census[3].largest, 2u);
  EXPECT_EQ(census[3].edges, 1u);
  expect_census_matches_per_s(toy());
}

TEST(SOverlapCensus, NoEdgesIsEmpty) {
  EXPECT_TRUE(s_overlap_census(OverlapTable{HypergraphBuilder{0}.build()})
                  .empty());
  EXPECT_TRUE(s_overlap_census(OverlapTable{HypergraphBuilder{5}.build()})
                  .empty());
}

TEST(SOverlapCensus, PairwiseDisjointEdgesAreEmpty) {
  HypergraphBuilder disjoint{6};
  disjoint.add_edge({0, 1});
  disjoint.add_edge({2, 3, 4});
  disjoint.add_edge({5});
  EXPECT_TRUE(s_overlap_census(OverlapTable{disjoint.build()}).empty());
}

TEST(SOverlapCensus, DuplicateEdges) {
  HypergraphBuilder b{6};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({2, 3});
  b.add_edge({4, 5});
  b.add_edge({4, 5});
  const Hypergraph h = b.build();
  const std::vector<SOverlapRow> census = s_overlap_census(OverlapTable{h});
  ASSERT_EQ(census.size(), 3u);
  EXPECT_EQ(census[2].components, 4u);  // {e0,e1,e2}, {e3}, {e4}, {e5}
  EXPECT_EQ(census[2].largest, 3u);
  EXPECT_EQ(census[2].edges, 3u);
  expect_census_matches_per_s(h);
}

TEST(SOverlapCensus, MatchesPerSOnRandomInputs) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng{seed};
    const index_t nv = 5 + static_cast<index_t>(seed % 30);
    const index_t ne = static_cast<index_t>(seed % 40);
    const Hypergraph h = testing::random_hypergraph(rng, nv, ne, 8);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_census_matches_per_s(h);
  }
}

}  // namespace
}  // namespace hp::hyper
