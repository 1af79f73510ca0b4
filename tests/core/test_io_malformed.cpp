// Malformed-input suite for the hypergraph loaders (text, hMETIS, and
// the binary snapshot): truncation, out-of-range and integer-wrapping
// vertex ids, overflowing header counts, duplicate entries, trailing
// garbage. Every
// case must raise a structured hp::ParseError / hp::InvalidInputError --
// never crash, allocate unboundedly, or silently misparse. Run under
// HP_SANITIZE in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/hypergraph.hpp"
#include "core/hypergraph_io.hpp"
#include "core/snapshot/snapshot.hpp"
#include "core/snapshot/snapshot_format.hpp"

namespace hp::hyper {
namespace {

// --- hp-hyper text format ------------------------------------------------

TEST(TextMalformed, MissingHeader) {
  EXPECT_THROW(from_text("0 1 2\n"), ParseError);
  EXPECT_THROW(from_text(""), ParseError);
  EXPECT_THROW(from_text("# only a comment\n"), ParseError);
}

TEST(TextMalformed, BadHeaderShape) {
  EXPECT_THROW(from_text("%hypergraph 4\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 2 9\n"), ParseError);
  EXPECT_THROW(from_text("%graph 4 2\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph four 2\n"), ParseError);
}

TEST(TextMalformed, NegativeHeaderCounts) {
  // Before the overflow guard these wrapped to ~4.29e9 and triggered a
  // multi-gigabyte CSR allocation at build().
  EXPECT_THROW(from_text("%hypergraph -1 0\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 -2\n"), ParseError);
}

TEST(TextMalformed, OverflowingHeaderCounts) {
  EXPECT_THROW(from_text("%hypergraph 4294967296 0\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 999999999999999 0\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 3 4294967297\n"), ParseError);
}

TEST(TextMalformed, VertexIdOutOfRange) {
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 4\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 1\n-1 2\n"), ParseError);
}

TEST(TextMalformed, VertexIdWraparound) {
  // 2^32 wraps to 0 under a bare u32 cast; the parser must reject it by
  // comparing in 64 bits first.
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 4294967296\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 4294967297\n"), ParseError);
}

TEST(TextMalformed, EdgeCountMismatch) {
  EXPECT_THROW(from_text("%hypergraph 4 2\n0 1\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 1\n2 3\n"), ParseError);
}

TEST(TextMalformed, EdgeBeforeHeader) {
  EXPECT_THROW(from_text("0 1\n%hypergraph 4 1\n"), ParseError);
}

TEST(TextMalformed, NonNumericMember) {
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 x\n"), ParseError);
  EXPECT_THROW(from_text("%hypergraph 4 1\n0 1.5\n"), ParseError);
}

TEST(TextMalformed, DuplicateMembersAreMergedNotFatal) {
  // Duplicate entries within one edge are defined to merge (builder
  // semantics); the parser must not crash or double-count pins.
  const Hypergraph h = from_text("%hypergraph 4 1\n1 1 1 2\n");
  EXPECT_EQ(h.num_edges(), 1u);
  EXPECT_EQ(h.edge_size(0), 2u);
  validate(h);
}

// --- hMETIS format -------------------------------------------------------

TEST(HmetisMalformed, MissingOrBadHeader) {
  EXPECT_THROW(from_hmetis(""), ParseError);
  EXPECT_THROW(from_hmetis("% nothing but comments\n"), ParseError);
  EXPECT_THROW(from_hmetis("2\n1 2\n3 4\n"), ParseError);
}

TEST(HmetisMalformed, WeightedFormatRejected) {
  EXPECT_THROW(from_hmetis("2 4 1\n1 2\n3 4\n"), ParseError);
}

TEST(HmetisMalformed, NegativeAndOverflowingHeader) {
  EXPECT_THROW(from_hmetis("-2 4\n"), ParseError);
  EXPECT_THROW(from_hmetis("2 -4\n"), ParseError);
  EXPECT_THROW(from_hmetis("4294967296 4\n"), ParseError);
  EXPECT_THROW(from_hmetis("1 999999999999\n1\n"), ParseError);
}

TEST(HmetisMalformed, VertexIdOutOfRangeAndWraparound) {
  EXPECT_THROW(from_hmetis("1 4\n5\n"), ParseError);
  EXPECT_THROW(from_hmetis("1 4\n0\n"), ParseError);  // ids are 1-based
  EXPECT_THROW(from_hmetis("1 4\n4294967297\n"), ParseError);
}

TEST(HmetisMalformed, EdgeCountMismatch) {
  EXPECT_THROW(from_hmetis("2 4\n1 2\n"), ParseError);
  EXPECT_THROW(from_hmetis("1 4\n1 2\n3 4\n"), ParseError);
}

// --- binary snapshot format ----------------------------------------------
// Each corruption is re-sealed (both checksums recomputed), so the
// structural check under test -- not a digest mismatch -- must catch it.

std::string valid_binary() {
  HypergraphBuilder b{5};
  b.add_edge({0, 1, 2});
  b.add_edge({3, 4});
  return snapshot::to_bytes(b.build());
}

snapshot::Header header_of(const std::string& bytes) {
  snapshot::Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

/// Store `header` with both checksums recomputed over `bytes`; its
/// section ranges must still lie inside `bytes`.
std::string reseal(std::string bytes, snapshot::Header header) {
  std::uint64_t sections = snapshot::kFnvOffsetBasis;
  for (const auto& [offset, size] :
       {std::pair{header.voff_offset, header.voff_bytes},
        std::pair{header.vadj_offset, header.vadj_bytes},
        std::pair{header.eoff_offset, header.eoff_bytes},
        std::pair{header.eadj_offset, header.eadj_bytes}}) {
    sections = snapshot::fnv1a(bytes.data() + offset, size, sections);
  }
  header.sections_checksum = sections;
  header.header_checksum = snapshot::header_checksum(header);
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

template <typename Error>
void expect_rejected(const std::string& bytes, const std::string& reason) {
  try {
    snapshot::from_bytes(bytes);
    ADD_FAILURE() << "accepted; expected rejection for: " << reason;
  } catch (const Error& error) {
    EXPECT_NE(std::string{error.what()}.find(reason), std::string::npos)
        << error.what();
  }
}

TEST(BinaryMalformed, TruncatedAtEveryPrefix) {
  const std::string bytes = valid_binary();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(snapshot::from_bytes(bytes.substr(0, len)), ParseError)
        << "prefix length " << len;
  }
}

TEST(BinaryMalformed, BadMagicAndVersion) {
  std::string bytes = valid_binary();
  bytes[0] = 'X';
  expect_rejected<ParseError>(bytes, "bad magic");
  snapshot::Header header = header_of(valid_binary());
  header.version = 9;
  expect_rejected<ParseError>(reseal(valid_binary(), header),
                              "unsupported version 9");
}

TEST(BinaryMalformed, OverflowingCounts) {
  // Blow up each header count; the size checks must reject the file
  // before allocating anything proportional to the bogus counts.
  for (std::uint64_t snapshot::Header::*count :
       {&snapshot::Header::num_vertices, &snapshot::Header::num_edges,
        &snapshot::Header::num_pins}) {
    snapshot::Header header = header_of(valid_binary());
    header.*count = ~std::uint64_t{0};
    expect_rejected<ParseError>(reseal(valid_binary(), header), "count");
  }
}

TEST(BinaryMalformed, VertexCountBombRejected) {
  // The shape hp_fuzz found in the retired .hpb loader (seed 410): a
  // header word declaring ~3e9 vertices must be refused by the declared
  // bound before the loader commits per-vertex offsets.
  snapshot::Header header = header_of(valid_binary());
  header.num_vertices = 0xb7000008u;
  expect_rejected<ParseError>(reseal(valid_binary(), header),
                              "vertex count 3070230536 out of range");
}

TEST(BinaryMalformed, MemberOutOfRange) {
  // The file ends with the last edge's last member (u32 LE): 4 becomes
  // 0xff000004, which only the structural validation can see.
  std::string bytes = valid_binary();
  bytes[bytes.size() - 1] = static_cast<char>(0xff);
  expect_rejected<InvalidInputError>(reseal(bytes, header_of(bytes)),
                                     "member vertex out of range");
}

TEST(BinaryMalformed, TrailingBytes) {
  expect_rejected<ParseError>(valid_binary() + '\0', "trailing bytes");
}

TEST(BinaryMalformed, NonMonotoneOffsets) {
  // Every vertex has degree 1, so the vertex offsets are [0, 1, ..., 5];
  // swapping entries 1 and 2 keeps both ends and breaks monotonicity.
  std::string bytes = valid_binary();
  const snapshot::Header header = header_of(bytes);
  const std::size_t first = header.voff_offset + sizeof(std::uint64_t);
  std::swap_ranges(bytes.begin() + first,
                   bytes.begin() + first + sizeof(std::uint64_t),
                   bytes.begin() + first + sizeof(std::uint64_t));
  expect_rejected<ParseError>(reseal(bytes, header),
                              "vertex offsets not monotone");
}

TEST(Malformed, ValidInputsStillParse) {
  // Control for the whole suite.
  EXPECT_NO_THROW(from_text("%hypergraph 4 2\n0 1 2\n2 3\n"));
  EXPECT_NO_THROW(from_hmetis("2 4\n1 2 3\n3 4\n"));
  EXPECT_NO_THROW(snapshot::from_bytes(valid_binary()));
  const std::string bytes = valid_binary();
  EXPECT_NO_THROW(snapshot::from_bytes(reseal(bytes, header_of(bytes))));
}

}  // namespace
}  // namespace hp::hyper
