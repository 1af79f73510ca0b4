#include "core/peel/flat_overlap.hpp"

#include <algorithm>

namespace hp::hyper {

namespace {
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
}  // namespace

FlatOverlapTracker::FlatOverlapTracker(const Hypergraph& h) {
  const index_t ne = h.num_edges();
  offsets_.reserve(static_cast<std::size_t>(ne) + 1);
  offsets_.push_back(0);

  // Per-row accumulation: count, over f's members, how often each other
  // incident edge appears; that multiplicity is |f ∩ g|. The scratch
  // counter array is cleared via the `seen` list, keeping each row
  // O(sum_{v in f} d(v)).
  std::vector<index_t> scratch(ne, 0);
  std::vector<index_t> seen;
  for (index_t f = 0; f < ne; ++f) {
    seen.clear();
    for (index_t v : h.vertices_of(f)) {
      for (index_t g : h.edges_of(v)) {
        if (g == f) continue;
        if (scratch[g] == 0) seen.push_back(g);
        ++scratch[g];
      }
    }
    std::sort(seen.begin(), seen.end());
    for (index_t g : seen) {
      neighbors_.push_back(g);
      counts_.push_back(scratch[g]);
      scratch[g] = 0;
    }
    offsets_.push_back(neighbors_.size());
  }
}

std::size_t FlatOverlapTracker::slot_of(index_t f, index_t g) const {
  const auto row = neighbors(f);
  const auto it = std::lower_bound(row.begin(), row.end(), g);
  if (it == row.end() || *it != g) return kNoSlot;
  return offsets_[f] + static_cast<std::size_t>(it - row.begin());
}

index_t FlatOverlapTracker::overlap(index_t f, index_t g) const {
  if (f == g) return 0;
  const std::size_t slot = slot_of(f, g);
  return slot == kNoSlot ? 0 : counts_[slot];
}

index_t FlatOverlapTracker::max_degree2() const {
  index_t best = 0;
  for (index_t f = 0; f < num_edges(); ++f) {
    best = std::max(best, degree2(f));
  }
  return best;
}

}  // namespace hp::hyper
