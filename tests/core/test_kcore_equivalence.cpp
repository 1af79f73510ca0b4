// Differential tests: the overlap-counting bulk peel (the paper's
// algorithm) and the naive set-comparison reference must agree on every
// input, byte for byte.
//
// Agreement contract: every field is identical -- vertex and edge core
// numbers, the reduction mask, maximum core and per-level counts. Among
// hyperedges whose residual sets become equal the lowest id survives
// in both implementations.
#include <gtest/gtest.h>

#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "test_helpers.hpp"

namespace hp::hyper {
namespace {

class KCoreEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KCoreEquivalence, RandomSparse) {
  Rng rng{GetParam()};
  const Hypergraph h = testing::random_hypergraph(rng, 30, 40, 5);
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

TEST_P(KCoreEquivalence, RandomDense) {
  Rng rng{GetParam() * 7919};
  const Hypergraph h = testing::random_hypergraph(rng, 15, 60, 8);
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

TEST_P(KCoreEquivalence, ManySmallEdges) {
  Rng rng{GetParam() * 104729};
  const Hypergraph h = testing::random_hypergraph(rng, 50, 120, 3);
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(KCoreEquivalence, ToyHypergraph) {
  const Hypergraph h = testing::toy_hypergraph();
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

TEST(KCoreEquivalence, DuplicateHeavyInput) {
  // Stress representative selection: many duplicate and nested edges.
  HypergraphBuilder b{6};
  b.add_edge({0, 1, 2});
  b.add_edge({0, 1, 2});
  b.add_edge({1, 2});
  b.add_edge({0, 1, 2, 3});
  b.add_edge({3, 4, 5});
  b.add_edge({4, 5});
  b.add_edge({4, 5});
  const Hypergraph h = b.build();
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

TEST(KCoreEquivalence, StarOfEdges) {
  // One hub vertex in every edge; peeling order stresses the cascade.
  HypergraphBuilder b{9};
  for (index_t i = 1; i < 9; i += 2) {
    b.add_edge({0, i, i + 1 < 9 ? i + 1 : 1});
  }
  const Hypergraph h = b.build();
  const HyperCoreResult fast = core_decomposition(h);
  testing::expect_same_cores(fast, core_decomposition_naive(h), "naive");
}

}  // namespace
}  // namespace hp::hyper
