// Containment (non-maximality) detection on a residual hypergraph.
//
// The paper's trick (section 3): a hyperedge f is contained in a live
// hyperedge g exactly when f's current cardinality equals its current
// overlap with g -- no set comparison needed. This module is the single
// home of that test; reduce and the k-core peel both route through here
// instead of keeping private copies.
#pragma once

#include <span>
#include <vector>

#include "core/peel/residual.hpp"

namespace hp::hyper {

/// Decide which of `candidates` are non-maximal under the current
/// residual sets via an overlap-counting sweep per candidate with
/// thread-local counters (parallel over candidates on the shared pool,
/// src/par/). Strict containment always dooms a candidate; among
/// identical residual sets the lowest id survives, making the result
/// deterministic under any schedule.
/// Candidates may repeat; the returned doomed list is sorted and unique.
std::vector<index_t> find_non_maximal(const ResidualHypergraph& residual,
                                      std::span<const index_t> candidates,
                                      PeelStats* stats);

}  // namespace hp::hyper
