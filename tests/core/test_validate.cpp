// hyper::validate must prove the vertex side is the exact transpose of
// the edge side. A structure whose vertex lists hold the right number
// of pins but the wrong incidences (duplicates on one vertex, missing on
// another) used to pass every check, and analyses then reported wrong
// degrees, isolated vertices and cores.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "core/hypergraph.hpp"
#include "core/snapshot/snapshot.hpp"
#include "../temp_dir.hpp"

namespace hp::hyper {
namespace {

/// e0 = {0, 1}, but edges_of(0) = [0, 0] and edges_of(1) = []: sorted
/// lists, in-range ids, member lookups that succeed and equal pin counts.
Hypergraph transpose_mismatch() {
  return Hypergraph::adopt_owned(/*voff=*/{0, 2, 2}, /*vadj=*/{0, 0},
                                 /*eoff=*/{0, 2}, /*eadj=*/{0, 1});
}

TEST(ValidateTranspose, RejectsDuplicatedAndMissingIncidences) {
  const Hypergraph h = transpose_mismatch();
  EXPECT_THROW(validate(h), InvalidInputError);
}

TEST(ValidateTranspose, RejectsVertexListingAForeignEdge) {
  // e0 = {0}, e1 = {1}; vertex 0 lists e1 instead of e0, vertex 1 lists
  // e0 instead of e1.
  const Hypergraph h = Hypergraph::adopt_owned({0, 1, 2}, {1, 0}, {0, 1, 2},
                                               {0, 1});
  EXPECT_THROW(validate(h), InvalidInputError);
}

TEST(ValidateTranspose, AcceptsExactTransposes) {
  HypergraphBuilder b{5};
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({0, 3});
  EXPECT_NO_THROW(validate(b.build()));
  EXPECT_NO_THROW(validate(Hypergraph{}));
  EXPECT_NO_THROW(validate(HypergraphBuilder{3}.build()));
}

TEST(ValidateTranspose, SavedSnapshotIsRejectedOnLoad) {
  // snapshot::save writes whatever it is given; the readers must refuse
  // the file.
  const std::string path = hp::test::temp_dir() + "/transpose_mismatch.hps";
  snapshot::save(transpose_mismatch(), path);
  EXPECT_THROW(cli::load_dataset(path), InvalidInputError);
  EXPECT_THROW(snapshot::verify(path), InvalidInputError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp::hyper
