// Shared declared-entity bounds for every hypergraph loader prologue.
//
// Each loader (text, hMETIS, MatrixMarket, snapshot) starts by
// reading counts out of an untrusted header and must reject them before
// allocating anything -- a 30-byte header or one flipped word must not
// commit gigabytes of CSR offsets. The bound and the size-equation
// checks used to be copied per loader; they live here so every format
// enforces exactly one policy.
#pragma once

#include <cstddef>
#include <string>

#include "util/common.hpp"

namespace hp::io {

/// Largest vertex/edge count any hypergraph loader accepts from a file
/// header. 2^24 entities is an order of magnitude beyond the paper's
/// scope while bounding the worst-case header-driven allocation to
/// ~200MB.
inline constexpr long long kMaxDeclaredEntities = 1LL << 24;

/// Bounds-checked header count: rejects negatives and counts above
/// kMaxDeclaredEntities *before* any cast, so a corrupted header fails
/// with ParseError instead of a silent 32-bit reinterpretation or an
/// allocation bomb. `where` locates the value for the error message
/// ("line 3", "snapshot header"); `what` names it ("vertex count").
index_t check_declared_count(long long value, const char* what,
                             const std::string& where);

/// The declared-size sanity equation of the binary snapshot loader: both
/// entity counts within kMaxDeclaredEntities and the pin count no larger
/// than the input itself -- every pin costs at least one input byte, so
/// a pin count exceeding the byte count is always corrupt. Throws
/// ParseError with `format` as the message prefix.
void check_declared_sizes(unsigned long long num_vertices,
                          unsigned long long num_edges,
                          unsigned long long num_pins,
                          std::size_t input_bytes, const char* format);

}  // namespace hp::io
