#include "bio/complex_io.hpp"

#include <gtest/gtest.h>

namespace hp::bio {
namespace {

constexpr const char* kSample =
    "# test complexes\n"
    "Arp2/3\tARP2\tARP3\tARC15\n"
    "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
    "Solo\tONLY1\n";

TEST(ComplexIo, ParsesTabSeparated) {
  const ComplexDataset d = parse_complex_table(kSample);
  EXPECT_EQ(d.hypergraph.num_edges(), 3u);
  EXPECT_EQ(d.hypergraph.num_vertices(), 7u);  // ARP2 shared
  EXPECT_EQ(d.complex_names.name_of(0), "Arp2/3");
  // ARP2 is in both complexes.
  const index_t arp2 = d.proteins.id_of("ARP2");
  EXPECT_EQ(d.hypergraph.vertex_degree(arp2), 2u);
}

TEST(ComplexIo, ParsesWhitespaceSeparated) {
  const ComplexDataset d = parse_complex_table("C1 P1 P2\nC2 P2 P3\n");
  EXPECT_EQ(d.hypergraph.num_edges(), 2u);
  EXPECT_EQ(d.hypergraph.num_vertices(), 3u);
}

TEST(ComplexIo, SkipsCommentsAndBlank) {
  const ComplexDataset d =
      parse_complex_table("# c\n\nC1 P1\n  \n# another\nC2 P2\n");
  EXPECT_EQ(d.hypergraph.num_edges(), 2u);
}

TEST(ComplexIo, RejectsMalformed) {
  EXPECT_THROW(parse_complex_table("LonelyName\n"), ParseError);
  EXPECT_THROW(parse_complex_table("C1 P1\nC1 P2\n"), ParseError);  // dup
}

TEST(ComplexIo, RoundTrip) {
  const ComplexDataset d = parse_complex_table(kSample);
  const ComplexDataset back = parse_complex_table(format_complex_table(d));
  EXPECT_EQ(back.hypergraph, d.hypergraph);
  EXPECT_EQ(back.complex_names, d.complex_names);
  EXPECT_EQ(back.proteins, d.proteins);
}

TEST(ComplexIo, SingletonComplexSupported) {
  const ComplexDataset d = parse_complex_table("Solo P1\n");
  EXPECT_EQ(d.hypergraph.num_edges(), 1u);
  EXPECT_EQ(d.hypergraph.edge_size(0), 1u);
}

TEST(ComplexIo, DuplicateProteinWithinComplexMerged) {
  const ComplexDataset d = parse_complex_table("C1 P1 P1 P2\n");
  EXPECT_EQ(d.hypergraph.edge_size(0), 2u);
}

}  // namespace
}  // namespace hp::bio
