#include "core/soverlap.hpp"

#include <algorithm>
#include <numeric>

#include "core/overlap.hpp"
#include "graph/graph_algos.hpp"
#include "obs/trace.hpp"

namespace hp::hyper {

graph::Graph s_intersection_graph(const Hypergraph& h, index_t s) {
  return s_intersection_graph(OverlapTable{h}, s);
}

graph::Graph s_intersection_graph(const OverlapTable& table, index_t s) {
  HP_REQUIRE(s >= 1, "s_intersection_graph: s must be >= 1");
  graph::GraphBuilder builder{table.num_edges()};
  for (index_t f = 0; f < table.num_edges(); ++f) {
    for (const auto& [g, ov] : table.row(f)) {
      if (f < g && ov >= s) builder.add_edge(f, g);
    }
  }
  return builder.build();
}

index_t SComponents::largest() const {
  HP_REQUIRE(count > 0, "SComponents::largest: no components");
  return static_cast<index_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

SComponents s_components(const Hypergraph& h, index_t s) {
  return s_components(OverlapTable{h}, s);
}

SComponents s_components(const OverlapTable& table, index_t s) {
  const graph::Graph g = s_intersection_graph(table, s);
  const graph::Components comp = graph::connected_components(g);
  SComponents out;
  out.label = comp.label;
  out.sizes = comp.sizes;
  out.count = comp.count;
  return out;
}

std::vector<index_t> s_distances(const Hypergraph& h, index_t source,
                                 index_t s) {
  HP_REQUIRE(source < h.num_edges(), "s_distances: source out of range");
  const graph::Graph g = s_intersection_graph(h, s);
  return graph::bfs_distances(g, source);
}

SPathSummary s_path_summary(const Hypergraph& h, index_t s) {
  const graph::Graph g = s_intersection_graph(h, s);
  const graph::PathSummary summary = graph::path_summary(g);
  SPathSummary out;
  out.diameter = summary.diameter;
  out.average_length = summary.average_length;
  out.connected_pairs = summary.pairs;
  return out;
}

std::vector<SOverlapRow> s_overlap_census(const OverlapTable& table) {
  HP_TRACE_SPAN("soverlap.census");
  const index_t ne = table.num_edges();

  // Counting sort of the f < g pairs by overlap: bucket s spans
  // [start[s], start[s + 1]) of `pairs`.
  std::vector<count_t> start;
  for (index_t f = 0; f < ne; ++f) {
    for (const auto& [g, ov] : table.row(f)) {
      if (f >= g) continue;
      if (ov + 2 > start.size()) start.resize(ov + 2, 0);
      ++start[ov + 1];
    }
  }
  const index_t s_max =
      start.empty() ? 0 : static_cast<index_t>(start.size() - 2);
  for (std::size_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
  const count_t total = start.empty() ? 0 : start.back();
  std::vector<std::pair<index_t, index_t>> pairs(total);
  {
    std::vector<count_t> cursor = start;
    for (index_t f = 0; f < ne; ++f) {
      for (const auto& [g, ov] : table.row(f)) {
        if (f < g) pairs[cursor[ov]++] = {f, g};
      }
    }
  }

  // Union by size with path halving; lowering s only adds pairs, so the
  // components at s are those at s + 1 joined by bucket s.
  std::vector<index_t> parent(ne);
  std::iota(parent.begin(), parent.end(), index_t{0});
  std::vector<index_t> members(ne, 1);
  const auto find = [&](index_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::vector<SOverlapRow> rows(s_max);
  index_t components = ne;
  index_t largest = ne > 0 ? 1 : 0;
  for (index_t s = s_max; s >= 1; --s) {
    for (count_t i = start[s]; i < start[s + 1]; ++i) {
      index_t a = find(pairs[i].first);
      index_t b = find(pairs[i].second);
      if (a == b) continue;
      if (members[a] < members[b]) std::swap(a, b);
      parent[b] = a;
      members[a] += members[b];
      largest = std::max(largest, members[a]);
      --components;
    }
    rows[s - 1] = {s, components, largest, total - start[s]};
  }
  return rows;
}

index_t max_meaningful_s(const Hypergraph& h) {
  return max_meaningful_s(OverlapTable{h});
}

index_t max_meaningful_s(const OverlapTable& table) {
  index_t best = 0;
  for (index_t f = 0; f < table.num_edges(); ++f) {
    for (const auto& [g, ov] : table.row(f)) {
      (void)g;
      best = std::max(best, ov);
    }
  }
  return best;
}

}  // namespace hp::hyper
