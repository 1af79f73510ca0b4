#include "core/stats.hpp"

#include <sstream>

#include "core/overlap.hpp"
#include "core/traversal.hpp"

namespace hp::hyper {

HypergraphSummary summarize(const Hypergraph& h) {
  return summarize(h, connected_components(h), max_edge_degree2(h));
}

HypergraphSummary summarize(const Hypergraph& h,
                            const HyperComponents& comp,
                            index_t max_degree2) {
  HypergraphSummary s;
  s.num_vertices = h.num_vertices();
  s.num_edges = h.num_edges();
  s.num_pins = h.num_pins();
  s.max_vertex_degree = h.max_vertex_degree();
  s.max_edge_size = h.max_edge_size();
  s.max_degree2 = max_degree2;

  s.num_components = comp.count;
  if (comp.count > 0) {
    const index_t big = comp.largest();
    s.largest_component_vertices = comp.vertex_counts[big];
    s.largest_component_edges = comp.edge_counts[big];
  }

  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const index_t d = h.vertex_degree(v);
    if (d == 1) ++s.degree_one_vertices;
    if (d == 0) ++s.isolated_vertices;
  }
  s.mean_vertex_degree =
      h.num_vertices() > 0
          ? static_cast<double>(h.num_pins()) / h.num_vertices()
          : 0.0;
  s.mean_edge_size = h.num_edges() > 0
                         ? static_cast<double>(h.num_pins()) / h.num_edges()
                         : 0.0;
  return s;
}

Histogram vertex_degree_histogram(const Hypergraph& h) {
  Histogram hist;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    hist.add(h.vertex_degree(v));
  }
  return hist;
}

Histogram edge_size_histogram(const Hypergraph& h) {
  Histogram hist;
  for (index_t e = 0; e < h.num_edges(); ++e) {
    hist.add(h.edge_size(e));
  }
  return hist;
}

PowerLawFit vertex_degree_power_law(const Hypergraph& h) {
  return vertex_degree_power_law(vertex_degree_histogram(h));
}

PowerLawFit vertex_degree_power_law(const Histogram& degree_histogram) {
  return power_law_fit(degree_histogram.frequencies());
}

EdgeSizeFits edge_size_fits(const Hypergraph& h) {
  return edge_size_fits(edge_size_histogram(h));
}

EdgeSizeFits edge_size_fits(const Histogram& hist) {
  EdgeSizeFits fits;
  fits.power = power_law_fit(hist.frequencies());
  fits.exponential = exponential_fit(hist.frequencies());
  return fits;
}

std::string to_string(const HypergraphSummary& s) {
  std::ostringstream out;
  out << "|V| (vertices)            : " << s.num_vertices << '\n'
      << "|F| (hyperedges)          : " << s.num_edges << '\n'
      << "|E| (pins)                : " << s.num_pins << '\n'
      << "Delta_V (max degree)      : " << s.max_vertex_degree << '\n'
      << "Delta_F (max edge size)   : " << s.max_edge_size << '\n'
      << "Delta_2,F (max degree-2)  : " << s.max_degree2 << '\n'
      << "components                : " << s.num_components << '\n'
      << "largest component         : " << s.largest_component_vertices
      << " vertices, " << s.largest_component_edges << " hyperedges\n"
      << "degree-1 vertices         : " << s.degree_one_vertices << '\n'
      << "isolated vertices         : " << s.isolated_vertices << '\n'
      << "mean vertex degree        : " << s.mean_vertex_degree << '\n'
      << "mean hyperedge size       : " << s.mean_edge_size << '\n';
  return out.str();
}

}  // namespace hp::hyper
