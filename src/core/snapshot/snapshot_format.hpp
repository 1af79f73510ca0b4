// On-disk layout of the immutable hypergraph snapshot (DESIGN.md
// section 13).
//
//   [ Header: 128 bytes, little-endian, FNV-1a self-checksummed ]
//   [ ...zero padding to a 64-byte boundary between sections...  ]
//   [ voff: u64[(V+1)] ][ vadj ][ eoff: u64[(F+1)] ][ eadj ]
//
// The adjacency sections are raw little-endian u32 arrays, so the file
// sections *are* the in-memory CSR arrays and snapshot::open can hand
// out spans into the mapping with zero parse cost.
//
// Multi-byte fields are little-endian; the endian_tag word makes a
// big-endian writer detectable instead of silently misread. Readers
// reject unknown versions and any set flag bit (no silent forward
// compatibility). Section offsets are 64-byte aligned so mapped u64
// arrays are naturally (and cache-line) aligned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace hp::hyper::snapshot {

inline constexpr char kMagic[8] = {'H', 'P', 'S', 'N', 'A', 'P', '0', '1'};

/// Written as 0x01020304 by a little-endian writer; reads back as
/// 0x04030201 on a big-endian machine.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

inline constexpr std::uint32_t kFormatVersion = 1;

/// Every section starts on a 64-byte boundary (gap zero-padded).
inline constexpr std::uint64_t kSectionAlignment = 64;

struct Header {
  char magic[8];             // "HPSNAP01"
  std::uint32_t endian_tag;  // kEndianTag
  std::uint32_t version;     // kFormatVersion
  std::uint32_t flags;       // must be 0; any set bit is rejected
  std::uint32_t reserved;    // must be 0
  std::uint64_t num_vertices;
  std::uint64_t num_edges;
  std::uint64_t num_pins;
  std::uint64_t voff_offset;  // from start of file, kSectionAlignment'd
  std::uint64_t voff_bytes;
  std::uint64_t vadj_offset;
  std::uint64_t vadj_bytes;
  std::uint64_t eoff_offset;
  std::uint64_t eoff_bytes;
  std::uint64_t eadj_offset;
  std::uint64_t eadj_bytes;
  std::uint64_t sections_checksum;  // FNV-1a chained over the 4 sections
  std::uint64_t header_checksum;    // FNV-1a over bytes [0, 120)
};

static_assert(sizeof(Header) == 128, "snapshot header layout drifted");
static_assert(std::is_trivially_copyable_v<Header>);
static_assert(offsetof(Header, header_checksum) == 120);

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// 64-bit FNV-1a; `seed` chains multiple ranges into one digest.
inline std::uint64_t fnv1a(const char* data, std::size_t size,
                           std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Checksum of everything before the header_checksum field itself.
inline std::uint64_t header_checksum(const Header& header) {
  char bytes[sizeof(Header)];
  std::memcpy(bytes, &header, sizeof(Header));
  return fnv1a(bytes, offsetof(Header, header_checksum));
}

}  // namespace hp::hyper::snapshot
