// Round-trips of the binary snapshot format (.hps, core/snapshot/)
// through bytes and through files; the mmap-specific behaviour and the
// corruption contract are in test_snapshot.cpp and test_io_malformed.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bio/cellzome_synth.hpp"
#include "core/snapshot/snapshot.hpp"
#include "core/snapshot/snapshot_format.hpp"
#include "test_helpers.hpp"
#include "../temp_dir.hpp"

namespace hp::hyper {
namespace {

Hypergraph through_file(const Hypergraph& h, const std::string& name) {
  const std::string path = hp::test::temp_dir() + "/" + name;
  snapshot::save(h, path);
  Hypergraph back = snapshot::open(path);
  std::remove(path.c_str());  // the mapping outlives the name
  return back;
}

TEST(BinaryIo, RoundTripToy) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string bytes = snapshot::to_bytes(h);
  EXPECT_EQ(snapshot::from_bytes(bytes), h);
  // Every .hps already on disk must keep opening: the size and digest
  // are pinned to what the format has always written at version 1.
  EXPECT_EQ(bytes.size(), 380u);
  EXPECT_EQ(snapshot::fnv1a(bytes.data(), bytes.size()),
            0xd0701fdbdcdc4cecull);
}

TEST(BinaryIo, RoundTripRandom) {
  Rng rng{20040426};
  for (int trial = 0; trial < 8; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 30, 20, 6);
    EXPECT_EQ(snapshot::from_bytes(snapshot::to_bytes(h)), h);
  }
}

TEST(BinaryIo, PreservesIsolatedVertices) {
  HypergraphBuilder b{12};
  b.add_edge({0, 1});
  const Hypergraph h = b.build();
  const Hypergraph back = through_file(h, "hp_bin_isolated.hps");
  EXPECT_EQ(back.num_vertices(), 12u);
  EXPECT_EQ(back, h);
}

TEST(BinaryIo, RoundTripCellzomeScale) {
  const Hypergraph h = bio::cellzome_surrogate().hypergraph;
  const std::string bytes = snapshot::to_bytes(h);
  EXPECT_EQ(snapshot::from_bytes(bytes), h);
  EXPECT_EQ(through_file(h, "hp_bin_cellzome.hps"), h);
  // Header, then the four CSR arrays, each starting on a 64-byte
  // boundary: u64 vertex offsets, u32 vertex adjacency, u64 edge
  // offsets, u32 edge adjacency.
  const auto aligned = [](std::size_t n) {
    return (n + snapshot::kSectionAlignment - 1) /
           snapshot::kSectionAlignment * snapshot::kSectionAlignment;
  };
  const std::size_t pins = h.num_pins();
  EXPECT_EQ(bytes.size(), sizeof(snapshot::Header) +
                              aligned(8 * (h.num_vertices() + 1)) +
                              aligned(4 * pins) +
                              aligned(8 * (h.num_edges() + 1)) + 4 * pins);
}

TEST(BinaryIo, RejectsCorruptedInputs) {
  // The mmap path (open) runs the same header and section-table checks
  // as from_bytes before it forms a single span.
  const std::string good = snapshot::to_bytes(testing::toy_hypergraph());
  std::string bad_magic = good;
  bad_magic[0] = 'Z';
  const std::string path = hp::test::temp_dir() + "/hp_bin_corrupt.hps";
  for (const std::string& bytes :
       {std::string{}, std::string{"XXXX"}, bad_magic,
        good.substr(0, good.size() - 3), good + "junk"}) {
    {
      std::ofstream out{path, std::ios::binary};
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(snapshot::open(path), ParseError)
        << bytes.size() << "-byte input";
  }
  std::remove(path.c_str());
}

TEST(BinaryIo, FileRoundTrip) {
  const Hypergraph h = testing::toy_hypergraph();
  EXPECT_EQ(through_file(h, "hp_bin_test.hps"), h);
  EXPECT_THROW(snapshot::open("/no/such/file.hps"), std::runtime_error);
}

TEST(BinaryIo, EmptyHypergraph) {
  // Zero vertices: every section but the two one-entry offset arrays is
  // empty, and the mapping must still open.
  const Hypergraph h = HypergraphBuilder{0}.build();
  EXPECT_EQ(snapshot::from_bytes(snapshot::to_bytes(h)), h);
  EXPECT_EQ(through_file(h, "hp_bin_empty.hps"), h);
}

}  // namespace
}  // namespace hp::hyper
