// The mmap'd snapshot format (core/snapshot/): round-trips, zero-copy
// opens, the parse-or-throw corruption contract, and algorithms running
// unchanged over mapped storage.
#include "core/snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/context/analysis_context.hpp"
#include "core/hypergraph.hpp"
#include "core/hypergraph_io.hpp"
#include "core/mutate/mutable_context.hpp"
#include "core/snapshot/snapshot_format.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "../temp_dir.hpp"

namespace hp::hyper {
namespace {

std::string save_temp(const Hypergraph& h, const std::string& name) {
  const std::string path = hp::test::temp_dir() + "/" + name;
  snapshot::save(h, path);
  return path;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotTest, SetFlagBitIsRejected) {
  // Bit 0 once marked varint-encoded adjacency. With the header checksum
  // made consistent, the flag check itself must refuse the file, and say
  // how to get a readable one.
  std::string bytes = snapshot::to_bytes(testing::toy_hypergraph());
  snapshot::Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.flags |= 1u;
  header.header_checksum = snapshot::header_checksum(header);
  std::memcpy(bytes.data(), &header, sizeof(header));

  const auto expect_rejected = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "a snapshot with flag bit 0 set was accepted";
    } catch (const ParseError& error) {
      EXPECT_NE(std::string{error.what()}.find("snapshot convert"),
                std::string::npos)
          << error.what();
    }
  };
  expect_rejected([&] { snapshot::from_bytes(bytes); });
  const std::string path = hp::test::temp_dir() + "/hp_snap_flag.hps";
  write_file(path, bytes);
  expect_rejected([&] { snapshot::open(path); });
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripBothCodecs) {
  // The two ways back from the one raw layout: decoding bytes into owned
  // storage, and mapping the saved file zero-copy.
  Rng rng{20040426};
  const std::string path = hp::test::temp_dir() + "/hp_snap_both.hps";
  for (int trial = 0; trial < 8; ++trial) {
    const Hypergraph h = testing::random_hypergraph(rng, 30, 20, 6);
    EXPECT_EQ(snapshot::from_bytes(snapshot::to_bytes(h)), h);
    snapshot::save(h, path);
    const Hypergraph mapped = snapshot::open(path);
    EXPECT_TRUE(mapped.is_mapped());
    EXPECT_EQ(mapped, h);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripEmptyAndEdgeless) {
  const Hypergraph empty;
  EXPECT_EQ(snapshot::from_bytes(snapshot::to_bytes(empty)), empty);

  // Isolated vertices only: offsets exist, adjacency sections are empty.
  const Hypergraph isolated = HypergraphBuilder{5}.build();
  EXPECT_EQ(snapshot::from_bytes(snapshot::to_bytes(isolated)), isolated);
}

TEST(SnapshotTest, OpenIsZeroCopyForRawCodec) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = save_temp(h, "hp_snap_raw.hps");

  const Hypergraph mapped = snapshot::open(path);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.owned_bytes(), 0u);
  EXPECT_GT(mapped.mapped_bytes(), 0u);
  EXPECT_EQ(mapped, h);
  EXPECT_FALSE(h.is_mapped());
  validate(mapped);
  std::remove(path.c_str());
}

TEST(SnapshotTest, StructuralEqualityAcrossStorageKinds) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = save_temp(h, "hp_snap_eq.hps");
  const Hypergraph mapped = snapshot::open(path);

  // Same structure, different storage: equal both ways.
  EXPECT_TRUE(mapped == h);
  EXPECT_TRUE(h == mapped);

  // Copying a mapped hypergraph preserves structure and equality.
  const Hypergraph copy = mapped;  // NOLINT(performance-unnecessary-copy)
  EXPECT_EQ(copy, h);

  // A structurally different hypergraph is unequal regardless of storage.
  HypergraphBuilder b{7};
  b.add_edge({0, 1});
  const Hypergraph other = b.build();
  EXPECT_FALSE(mapped == other);
  std::remove(path.c_str());
}

TEST(SnapshotTest, DefaultVersusBuiltEmptyCompareEqual) {
  EXPECT_TRUE(Hypergraph{} == HypergraphBuilder{0}.build());
}

TEST(SnapshotTest, InfoReportsHeaderFields) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = save_temp(h, "hp_snap_info.hps");
  const snapshot::Info info = snapshot::info(path);
  EXPECT_EQ(info.version, snapshot::kFormatVersion);
  EXPECT_EQ(info.codec, snapshot::Codec::kNone);
  EXPECT_EQ(info.num_vertices, h.num_vertices());
  EXPECT_EQ(info.num_edges, h.num_edges());
  EXPECT_EQ(info.num_pins, h.num_pins());
  EXPECT_GT(info.file_bytes, info.section_bytes);
  std::remove(path.c_str());
}

TEST(SnapshotTest, VerifyAcceptsIntactAndRejectsCorrupt) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = save_temp(h, "hp_snap_verify.hps");
  EXPECT_NO_THROW(snapshot::verify(path));

  // Flip one adjacency byte on disk: the section checksum must catch it.
  std::string bytes = snapshot::to_bytes(h);
  bytes[bytes.size() - 1] ^= 0x40;
  const std::string bad = hp::test::temp_dir() + "/hp_snap_verify_bad.hps";
  write_file(bad, bytes);
  EXPECT_THROW(snapshot::verify(bad), ParseError);
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(SnapshotTest, EveryHeaderByteFlipIsRejected) {
  const std::string bytes = snapshot::to_bytes(testing::toy_hypergraph());
  ASSERT_GE(bytes.size(), sizeof(snapshot::Header));
  for (std::size_t i = 0; i < sizeof(snapshot::Header); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string corrupt = bytes;
      corrupt[i] ^= mask;
      EXPECT_THROW(snapshot::from_bytes(corrupt), ParseError)
          << "header byte " << i << " flip went undetected";
    }
  }
}

TEST(SnapshotTest, EveryBodyByteFlipParsesOrThrows) {
  // The oracle contract over the full file: a one-byte flip either
  // throws ParseError or (padding bytes, which no checksum covers) yields
  // the original hypergraph. Anything else -- a crash, another exception
  // type, a silently different graph -- fails.
  const Hypergraph h = testing::toy_hypergraph();
  const std::string bytes = snapshot::to_bytes(h);
  for (std::size_t i = sizeof(snapshot::Header); i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] ^= 0x20;
    try {
      EXPECT_EQ(snapshot::from_bytes(corrupt), h)
          << "non-padding byte " << i << " flip went undetected";
    } catch (const ParseError&) {
    } catch (const InvalidInputError&) {
    }
  }
}

TEST(SnapshotTest, TruncationAlwaysThrows) {
  const std::string bytes = snapshot::to_bytes(testing::toy_hypergraph());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{64},
        sizeof(snapshot::Header) - 1, sizeof(snapshot::Header),
        bytes.size() - 64, bytes.size() - 1}) {
    EXPECT_THROW(snapshot::from_bytes(bytes.substr(0, keep)), ParseError)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST(SnapshotTest, AlgorithmsRunOverMappedStorage) {
  Rng rng{99};
  const Hypergraph h = testing::random_hypergraph(rng, 40, 25, 5);
  const std::string path = save_temp(h, "hp_snap_algos.hps");
  const Hypergraph mapped = snapshot::open(path);

  // induce over a mapped parent produces owned storage with the same
  // result as inducing the owned original.
  std::vector<bool> keep_vertex(h.num_vertices(), true);
  keep_vertex[0] = false;
  const std::vector<bool> keep_edge(h.num_edges(), true);
  const SubHypergraph from_mapped = induce(mapped, keep_vertex, keep_edge);
  EXPECT_FALSE(from_mapped.hypergraph.is_mapped());
  EXPECT_EQ(from_mapped.hypergraph,
            induce(h, keep_vertex, keep_edge).hypergraph);

  // A full analysis context over the mapping, with the ownership split
  // surfaced in its stats.
  AnalysisContext context{mapped};
  context.cores();
  context.components();
  const ContextStats stats = context.stats();
  EXPECT_GT(stats.hypergraph_mapped_bytes, 0u);
  EXPECT_EQ(stats.hypergraph_owned_bytes, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MutablePipelineOverMappedBase) {
  const Hypergraph h = testing::toy_hypergraph();
  const std::string path = save_temp(h, "hp_snap_mutate.hps");
  const Hypergraph mapped = snapshot::open(path);

  MutableAnalysisContext ctx{mapped};
  const index_t e = ctx.graph().add_hyperedge({0, 4, 6});
  ctx.vertex_degrees();
  EXPECT_EQ(ctx.graph().live_edges(), h.num_edges() + 1);
  ctx.graph().remove_hyperedge(e);
  EXPECT_EQ(ctx.graph().live_edges(), h.num_edges());
  EXPECT_EQ(ctx.snapshot().hypergraph, h);
  EXPECT_GT(ctx.stats().hypergraph_owned_bytes, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TextAndSnapshotLoadersAgree) {
  Rng rng{11};
  const Hypergraph h = testing::random_hypergraph(rng, 25, 15, 4);
  const std::string text_path = hp::test::temp_dir() + "/hp_snap_diff.hyper";
  save_text(h, text_path);
  const std::string snap_path = save_temp(h, "hp_snap_diff.hps");
  EXPECT_EQ(load_text(text_path), snapshot::open(snap_path));
  std::remove(text_path.c_str());
  std::remove(snap_path.c_str());
}

}  // namespace
}  // namespace hp::hyper
