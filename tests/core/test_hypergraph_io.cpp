#include "core/hypergraph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "test_helpers.hpp"
#include "util/common.hpp"
#include "../temp_dir.hpp"

namespace hp::hyper {
namespace {

TEST(HypergraphIo, RoundTripToy) {
  const Hypergraph h = testing::toy_hypergraph();
  const Hypergraph back = from_text(to_text(h));
  EXPECT_EQ(h, back);
}

TEST(HypergraphIo, RoundTripRandom) {
  Rng rng{77};
  for (int trial = 0; trial < 5; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 25, 20, 6);
    EXPECT_EQ(h, from_text(to_text(h)));
  }
}

TEST(HypergraphIo, PreservesIsolatedVertices) {
  HypergraphBuilder b{10};
  b.add_edge({0, 1});
  const Hypergraph h = b.build();
  const Hypergraph back = from_text(to_text(h));
  EXPECT_EQ(back.num_vertices(), 10u);
}

TEST(HypergraphIo, ParsesCommentsAndBlankLines) {
  const Hypergraph h = from_text(
      "# a comment\n"
      "\n"
      "%hypergraph 3 2\n"
      "0 1\n"
      "# interior comment\n"
      "1 2\n");
  EXPECT_EQ(h.num_vertices(), 3u);
  EXPECT_EQ(h.num_edges(), 2u);
}

TEST(HypergraphIo, RejectsMalformedInput) {
  EXPECT_THROW(from_text(""), ParseError);
  EXPECT_THROW(from_text("0 1\n"), ParseError);  // edge before header
  EXPECT_THROW(from_text("%hypergraph 2\n"), ParseError);  // short header
  EXPECT_THROW(from_text("%hypergraph 2 1\n0 5\n"), ParseError);  // range
  EXPECT_THROW(from_text("%hypergraph 2 2\n0 1\n"), ParseError);  // count
  EXPECT_THROW(from_text("%hypergraph 2 1\n0 x\n"), ParseError);  // token
}

TEST(HypergraphIo, FileRoundTrip) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = hp::test::temp_dir() + "/hp_io_test.hyper";
  save_text(h, path);
  EXPECT_EQ(load_text(path), h);
  std::remove(path.c_str());
}

TEST(HypergraphIo, MissingFileThrows) {
  EXPECT_THROW(load_text("/nonexistent/hp.hyper"), std::runtime_error);
}

TEST(HmetisIo, RoundTripPreservesEdges) {
  const Hypergraph h = testing::toy_hypergraph();
  const Hypergraph back = from_hmetis(to_hmetis(h));
  // hMETIS cannot represent trailing isolated vertices beyond the
  // declared count; the toy has none, so the round trip is exact.
  EXPECT_EQ(back, h);
}

TEST(HmetisIo, FormatShape) {
  HypergraphBuilder b{3};
  b.add_edge({0, 2});
  b.add_edge({1});
  const std::string text = to_hmetis(b.build());
  // Header "2 3" (edges, vertices), then 1-based member lists.
  EXPECT_NE(text.find("2 3\n"), std::string::npos);
  EXPECT_NE(text.find("1 3\n"), std::string::npos);
  EXPECT_NE(text.find("\n2\n"), std::string::npos);
}

TEST(HmetisIo, ParsesCommentsAndValidates) {
  const Hypergraph h = from_hmetis("% comment\n2 4\n1 2\n3 4\n");
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_TRUE(h.edge_contains(0, 0));  // 1-based "1" -> vertex 0
}

TEST(HmetisIo, RejectsMalformed) {
  EXPECT_THROW(from_hmetis(""), ParseError);
  EXPECT_THROW(from_hmetis("2 4 1\n1 2\n3 4\n"), ParseError);  // weighted fmt
  EXPECT_THROW(from_hmetis("1 2\n0 1\n"), ParseError);  // 0 is out of range
  EXPECT_THROW(from_hmetis("1 2\n1 3\n"), ParseError);  // beyond vertices
  EXPECT_THROW(from_hmetis("2 2\n1 2\n"), ParseError);  // edge count
}

TEST(HmetisIo, FileRoundTrip) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = hp::test::temp_dir() + "/hp_io_test.hgr";
  save_hmetis(h, path);
  EXPECT_EQ(load_hmetis(path), h);
  std::remove(path.c_str());
  EXPECT_THROW(load_hmetis("/no/such/file.hgr"), std::runtime_error);
}

}  // namespace
}  // namespace hp::hyper
