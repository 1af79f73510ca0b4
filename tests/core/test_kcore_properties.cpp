// Structural property sweeps for the hypergraph k-core across every
// input family the benchmarks use (random, Matrix Market profiles, the
// Cellzome surrogate).
#include <gtest/gtest.h>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "mm/mm_synth.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

void check_core_invariants(const Hypergraph& h) {
  const HyperCoreResult r = core_decomposition(h);

  // Nestedness: the (k+1)-core is contained in the k-core.
  for (index_t k = 1; k <= r.max_core; ++k) {
    const auto outer = r.core_vertices(k);
    const auto inner = r.core_vertices(k + 1);
    std::vector<bool> in_outer(h.num_vertices(), false);
    for (index_t v : outer) in_outer[v] = true;
    for (index_t v : inner) EXPECT_TRUE(in_outer[v]);
  }

  // Every level satisfies the definition.
  for (index_t k = 1; k <= r.max_core; ++k) {
    const SubHypergraph core = extract_core(h, r, k);
    EXPECT_TRUE(satisfies_core_conditions(core.hypergraph, k)) << "k=" << k;
  }

  // The extracted maximum core's own decomposition tops out at exactly
  // the same k (a deeper core inside it would be a deeper core of h).
  if (r.max_core > 0) {
    const SubHypergraph max_core = extract_core(h, r, r.max_core);
    const HyperCoreResult inner = core_decomposition(max_core.hypergraph);
    EXPECT_EQ(inner.max_core, r.max_core);
    EXPECT_EQ(inner.core_vertices(r.max_core).size(),
              max_core.hypergraph.num_vertices());
  }

  // The serial path (one lane) gives the same bytes as the pool.
  par::LaneLimit one{1};
  testing::expect_same_cores(core_decomposition(h), r, "one lane");
}

TEST(KCoreProperties, BandedMatrixHypergraph) {
  Rng rng{1};
  check_core_invariants(
      mm::row_net_hypergraph(mm::synthesize_banded(150, 4, 0.6, rng)));
}

TEST(KCoreProperties, FemBlockMatrixHypergraph) {
  Rng rng{2};
  check_core_invariants(
      mm::row_net_hypergraph(mm::synthesize_fem_blocks(200, 8, 120, rng)));
}

TEST(KCoreProperties, StiffnessMatrixHypergraph) {
  Rng rng{3};
  check_core_invariants(
      mm::row_net_hypergraph(mm::synthesize_stiffness(180, 5, 150, rng)));
}

TEST(KCoreProperties, TokamakMatrixHypergraph) {
  Rng rng{4};
  check_core_invariants(
      mm::row_net_hypergraph(mm::synthesize_tokamak(120, 3, 4, 0.5, rng)));
}

TEST(KCoreProperties, SmallCellzomeSurrogate) {
  bio::CellzomeParams p;
  p.num_proteins = 220;
  p.num_complexes = 45;
  p.degree_one_proteins = 130;
  p.max_degree = 9;
  p.core_proteins = 12;
  p.core_complexes = 10;
  p.core_memberships = 3;
  p.max_complex_size = 25;
  check_core_invariants(bio::cellzome_surrogate(p).hypergraph);
}

class KCorePropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KCorePropertySweep, RandomHypergraphs) {
  Rng rng{GetParam()};
  const index_t nv = 20 + static_cast<index_t>(rng.uniform(30));
  const index_t ne = 20 + static_cast<index_t>(rng.uniform(40));
  check_core_invariants(testing::random_hypergraph(rng, nv, ne, 6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCorePropertySweep,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST(KCoreProperties, VertexRemovalNeverDeepensTheCore) {
  // Monotonicity: deleting a vertex cannot increase the maximum core.
  Rng rng{55};
  const Hypergraph h = testing::random_hypergraph(rng, 18, 25, 5);
  const index_t base = core_decomposition(h).max_core;
  for (index_t v = 0; v < h.num_vertices(); v += 3) {
    std::vector<bool> keep_v(h.num_vertices(), true);
    keep_v[v] = false;
    const std::vector<bool> keep_e(h.num_edges(), true);
    const SubHypergraph sub = induce(h, keep_v, keep_e);
    EXPECT_LE(core_decomposition(sub.hypergraph).max_core, base)
        << "removing vertex " << v;
  }
}

}  // namespace
}  // namespace hp::hyper
