#include "core/overlap.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace hp::hyper {

index_t max_edge_degree2(const Hypergraph& h) {
  HP_TRACE_SPAN("stats.max_degree2");
  // stamp[g] == f marks g as already counted in row f; seeding stamp[f]
  // with f itself skips the self-overlap.
  std::vector<index_t> stamp(h.num_edges(), kInvalidIndex);
  index_t best = 0;
  for (index_t f = 0; f < h.num_edges(); ++f) {
    stamp[f] = f;
    index_t width = 0;
    for (index_t v : h.vertices_of(f)) {
      for (index_t g : h.edges_of(v)) {
        if (stamp[g] == f) continue;
        stamp[g] = f;
        ++width;
      }
    }
    best = std::max(best, width);
  }
  return best;
}

std::vector<index_t> vertex_degree2(const Hypergraph& h) {
  std::vector<index_t> d2(h.num_vertices(), 0);
  std::vector<index_t> scratch;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    scratch.clear();
    for (index_t e : h.edges_of(v)) {
      for (index_t w : h.vertices_of(e)) {
        if (w != v) scratch.push_back(w);
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    d2[v] = static_cast<index_t>(scratch.size());
  }
  return d2;
}

}  // namespace hp::hyper
