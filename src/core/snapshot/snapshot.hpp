// Immutable on-disk hypergraph snapshots (DESIGN.md section 13).
//
// save/to_bytes serialize a Hypergraph into the mappable layout of
// snapshot_format.hpp; open() memory-maps a snapshot and returns a
// Hypergraph whose CSR views point straight into the mapping -- load
// cost is O(header + offset tables), not O(file).
//
// Trust model, same as every loader: bounds (io::check_declared_sizes)
// and the offset tables are validated before any span is formed, so a
// hostile file cannot cause out-of-bounds reads; full content
// validation (sortedness, CSR symmetry) stays hyper::validate, which
// the CLI runs on every load path. from_bytes -- the corruption-oracle
// entry point -- additionally verifies the section checksum and runs
// validate itself: it either throws or returns a fully valid
// hypergraph.
#pragma once

#include <cstdint>
#include <string>

#include "core/hypergraph.hpp"
#include "core/snapshot/snapshot_format.hpp"

namespace hp::hyper::snapshot {

/// The adjacency encoding a header declares. Raw is the only one, so
/// this exists for the end-to-end benchmark (perfbench), which checks
/// Info::codec; nothing else reads it.
enum class Codec : std::uint32_t { kNone = 0 };

/// Serialize to the snapshot layout.
std::string to_bytes(const Hypergraph& h);

/// to_bytes + write to `path`; throws std::runtime_error on I/O failure.
void save(const Hypergraph& h, const std::string& path);

/// Open a snapshot file, memory-mapped and zero-copy: the returned
/// Hypergraph keeps the mapping alive and reports its bytes as
/// mapped_bytes(). Header, bounds, and offset tables are fully
/// validated; adjacency *content* is not scanned here (run
/// hyper::validate, as cli::load_dataset does). Throws ParseError on
/// malformed input, std::runtime_error on I/O failure.
Hypergraph open(const std::string& path);

/// Parse a snapshot from an in-memory buffer into owned storage, with
/// the section checksum verified and hyper::validate run: throws or
/// returns a valid hypergraph. This is the fuzz/corruption-oracle path.
Hypergraph from_bytes(const std::string& bytes);

/// Header summary without touching the sections.
struct Info {
  std::uint32_t version = 0;
  Codec codec = Codec::kNone;  ///< perfbench's check; always kNone
  count_t num_vertices = 0;
  count_t num_edges = 0;
  count_t num_pins = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t section_bytes = 0;  ///< sum of the four section sizes
};

Info info(const std::string& path);

/// Full integrity check: header + section checksums + structural
/// validate. Throws (ParseError / InvalidInputError) on any defect.
void verify(const std::string& path);

}  // namespace hp::hyper::snapshot
