#include "core/snapshot/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "util/declared_sizes.hpp"
#include "util/mmap_file.hpp"

namespace hp::hyper::snapshot {

namespace {

using offset_t = Hypergraph::offset_t;

void pad_to_alignment(std::string& out) {
  while (out.size() % kSectionAlignment != 0) out.push_back('\0');
}

/// Chained FNV-1a digest of the four sections, in header order.
std::uint64_t sections_checksum_of(const char* data, const Header& header) {
  std::uint64_t sum = kFnvOffsetBasis;
  sum = fnv1a(data + header.voff_offset, header.voff_bytes, sum);
  sum = fnv1a(data + header.vadj_offset, header.vadj_bytes, sum);
  sum = fnv1a(data + header.eoff_offset, header.eoff_bytes, sum);
  sum = fnv1a(data + header.eadj_offset, header.eadj_bytes, sum);
  return sum;
}

/// Everything that must hold before a single section byte is trusted:
/// magic/version/endianness, the header's own checksum, declared-count
/// bounds (io::check_declared_sizes -- the shared allocation-bomb
/// guard), and a section table whose ranges lie inside the input,
/// aligned, with the exact sizes the counts imply. Throws ParseError.
Header read_and_check_header(const char* data, std::size_t size) {
  if (size < sizeof(Header)) {
    throw ParseError{"snapshot: input smaller than header (" +
                     std::to_string(size) + " bytes)"};
  }
  Header header;
  std::memcpy(&header, data, sizeof(Header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    throw ParseError{"snapshot: bad magic"};
  }
  if (header.endian_tag != kEndianTag) {
    throw ParseError{
        "snapshot: endianness mismatch (file written on an incompatible "
        "machine)"};
  }
  if (header.version != kFormatVersion) {
    throw ParseError{"snapshot: unsupported version " +
                     std::to_string(header.version)};
  }
  if (header.header_checksum != header_checksum(header)) {
    throw ParseError{"snapshot: header checksum mismatch"};
  }
  if (header.flags != 0) {
    throw ParseError{
        "snapshot: unsupported header flags (only raw snapshots are read; "
        "rewrite it with `snapshot convert <text file> out.hps`)"};
  }
  if (header.reserved != 0) {
    throw ParseError{"snapshot: reserved header field not zero"};
  }
  io::check_declared_sizes(header.num_vertices, header.num_edges,
                           header.num_pins, size, "snapshot");

  const auto check_section = [&](std::uint64_t offset, std::uint64_t bytes,
                                 const char* what) {
    if (offset < sizeof(Header) || offset % kSectionAlignment != 0 ||
        offset > size || bytes > size - offset) {
      throw ParseError{std::string{"snapshot: "} + what +
                       " section out of bounds"};
    }
  };
  check_section(header.voff_offset, header.voff_bytes, "voff");
  check_section(header.vadj_offset, header.vadj_bytes, "vadj");
  check_section(header.eoff_offset, header.eoff_bytes, "eoff");
  check_section(header.eadj_offset, header.eadj_bytes, "eadj");

  // Counts bounded above, so these products cannot overflow.
  if (header.voff_bytes != (header.num_vertices + 1) * sizeof(offset_t) ||
      header.eoff_bytes != (header.num_edges + 1) * sizeof(offset_t)) {
    throw ParseError{"snapshot: offset section size disagrees with counts"};
  }
  if (header.vadj_bytes != header.num_pins * sizeof(index_t) ||
      header.eadj_bytes != header.num_pins * sizeof(index_t)) {
    throw ParseError{"snapshot: adjacency section size disagrees with counts"};
  }

  std::uint64_t end = 0;
  for (const auto& [offset, bytes] :
       {std::pair{header.voff_offset, header.voff_bytes},
        std::pair{header.vadj_offset, header.vadj_bytes},
        std::pair{header.eoff_offset, header.eoff_bytes},
        std::pair{header.eadj_offset, header.eadj_bytes}}) {
    end = std::max(end, offset + bytes);
  }
  if (end != size) {
    throw ParseError{"snapshot: trailing bytes after sections"};
  }
  return header;
}

/// An offset table must start at 0, end at the declared pin count, and
/// be monotone -- after this, every list the table frames lies inside
/// an adjacency array of num_pins elements, so span formation is safe.
void check_offset_table(std::span<const offset_t> offsets, std::uint64_t pins,
                        const char* what) {
  if (offsets.front() != 0 || offsets.back() != pins) {
    throw ParseError{std::string{"snapshot: "} + what +
                     " offsets disagree with pin count"};
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      throw ParseError{std::string{"snapshot: "} + what +
                       " offsets not monotone"};
    }
  }
}

}  // namespace

std::string to_bytes(const Hypergraph& h) {
  // A default-constructed hypergraph has empty offset views; on disk the
  // arrays always carry their leading 0.
  static constexpr offset_t kEmptyOffsets[1] = {0};
  std::span<const offset_t> voff = h.vertex_offsets();
  std::span<const offset_t> eoff = h.edge_offsets();
  if (voff.empty()) voff = kEmptyOffsets;
  if (eoff.empty()) eoff = kEmptyOffsets;

  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_tag = kEndianTag;
  header.version = kFormatVersion;
  header.num_vertices = h.num_vertices();
  header.num_edges = h.num_edges();
  header.num_pins = h.num_pins();

  std::string out(sizeof(Header), '\0');
  const auto append_section = [&](auto values, std::uint64_t& offset_field,
                                  std::uint64_t& bytes_field) {
    pad_to_alignment(out);
    offset_field = out.size();
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size_bytes());
    bytes_field = out.size() - offset_field;
  };

  append_section(voff, header.voff_offset, header.voff_bytes);
  append_section(h.vertex_adjacency(), header.vadj_offset, header.vadj_bytes);
  append_section(eoff, header.eoff_offset, header.eoff_bytes);
  append_section(h.edge_adjacency(), header.eadj_offset, header.eadj_bytes);

  header.sections_checksum = sections_checksum_of(out.data(), header);
  header.header_checksum = header_checksum(header);
  std::memcpy(out.data(), &header, sizeof(Header));
  return out;
}

void save(const Hypergraph& h, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error{"snapshot::save: cannot open " + path};
  const std::string bytes = to_bytes(h);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error{"snapshot::save: write failed for " + path};
  }
}

Hypergraph open(const std::string& path) {
  auto file = std::make_shared<MappedFile>(path);
  const char* base = static_cast<const char*>(file->data());
  const Header header = read_and_check_header(base, file->size());

  const std::span<const offset_t> voff{
      reinterpret_cast<const offset_t*>(base + header.voff_offset),
      static_cast<std::size_t>(header.num_vertices) + 1};
  const std::span<const offset_t> eoff{
      reinterpret_cast<const offset_t*>(base + header.eoff_offset),
      static_cast<std::size_t>(header.num_edges) + 1};
  check_offset_table(voff, header.num_pins, "vertex");
  check_offset_table(eoff, header.num_pins, "edge");
  const auto pins = static_cast<std::size_t>(header.num_pins);
  const std::span<const index_t> vadj{
      reinterpret_cast<const index_t*>(base + header.vadj_offset), pins};
  const std::span<const index_t> eadj{
      reinterpret_cast<const index_t*>(base + header.eadj_offset), pins};
  return Hypergraph::adopt_external(std::move(file), voff, vadj, eoff, eadj);
}

Hypergraph from_bytes(const std::string& bytes) {
  const Header header = read_and_check_header(bytes.data(), bytes.size());
  if (sections_checksum_of(bytes.data(), header) !=
      header.sections_checksum) {
    throw ParseError{"snapshot: section checksum mismatch"};
  }

  // The string buffer carries no alignment guarantee; memcpy every
  // section out (read_and_check_header fixed their sizes) before reading.
  const auto copy_section = [&](auto& into, std::uint64_t offset) {
    if (!into.empty()) {
      std::memcpy(into.data(), bytes.data() + offset,
                  into.size() * sizeof(into[0]));
    }
  };
  std::vector<offset_t> voff(static_cast<std::size_t>(header.num_vertices) +
                             1);
  std::vector<offset_t> eoff(static_cast<std::size_t>(header.num_edges) + 1);
  copy_section(voff, header.voff_offset);
  copy_section(eoff, header.eoff_offset);
  check_offset_table(voff, header.num_pins, "vertex");
  check_offset_table(eoff, header.num_pins, "edge");

  const auto pins = static_cast<std::size_t>(header.num_pins);
  std::vector<index_t> vadj(pins);
  std::vector<index_t> eadj(pins);
  copy_section(vadj, header.vadj_offset);
  copy_section(eadj, header.eadj_offset);

  Hypergraph h = Hypergraph::adopt_owned(std::move(voff), std::move(vadj),
                                         std::move(eoff), std::move(eadj));
  // Parse-or-throw contract: never hand back an invalid structure.
  validate(h);
  return h;
}

Info info(const std::string& path) {
  const MappedFile file{path};
  const Header header = read_and_check_header(
      static_cast<const char*>(file.data()), file.size());
  Info out;
  out.version = header.version;
  out.num_vertices = header.num_vertices;
  out.num_edges = header.num_edges;
  out.num_pins = header.num_pins;
  out.file_bytes = file.size();
  out.section_bytes = header.voff_bytes + header.vadj_bytes +
                      header.eoff_bytes + header.eadj_bytes;
  return out;
}

void verify(const std::string& path) {
  {
    const MappedFile file{path};
    const char* base = static_cast<const char*>(file.data());
    const Header header = read_and_check_header(base, file.size());
    if (sections_checksum_of(base, header) != header.sections_checksum) {
      throw ParseError{"snapshot: section checksum mismatch"};
    }
  }
  validate(open(path));
}

}  // namespace hp::hyper::snapshot
