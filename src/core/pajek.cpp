#include "core/pajek.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hp::hyper {

namespace {
/// Pajek label: quoted, with embedded quotes replaced (Pajek has no
/// escape mechanism).
std::string quote(const std::string& label) {
  std::string out = "\"";
  for (char c : label) out += (c == '"' ? '\'' : c);
  out += '"';
  return out;
}
}  // namespace

std::string to_pajek_bipartite(const Hypergraph& h,
                               const PajekLabel& vertex_label,
                               const PajekLabel& edge_label) {
  std::ostringstream out;
  const index_t total = h.num_vertices() + h.num_edges();
  // Two-mode header: total node count, then the size of the first mode.
  out << "*Vertices " << total << ' ' << h.num_vertices() << '\n';
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    const std::string label =
        vertex_label ? vertex_label(v) : "v" + std::to_string(v);
    out << (v + 1) << ' ' << quote(label) << '\n';
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    const std::string label =
        edge_label ? edge_label(e) : "f" + std::to_string(e);
    out << (h.num_vertices() + e + 1) << ' ' << quote(label) << '\n';
  }
  out << "*Edges\n";
  for (index_t e = 0; e < h.num_edges(); ++e) {
    for (index_t v : h.vertices_of(e)) {
      out << (v + 1) << ' ' << (h.num_vertices() + e + 1) << '\n';
    }
  }
  return out.str();
}

std::string to_pajek_bipartite(const Hypergraph& h,
                               const std::vector<std::string>& vertex_labels,
                               const std::vector<std::string>& edge_labels) {
  if (!vertex_labels.empty()) {
    HP_REQUIRE(vertex_labels.size() == h.num_vertices(),
               "to_pajek_bipartite: vertex label count mismatch");
  }
  if (!edge_labels.empty()) {
    HP_REQUIRE(edge_labels.size() == h.num_edges(),
               "to_pajek_bipartite: edge label count mismatch");
  }
  const auto from = [](const std::vector<std::string>& labels) -> PajekLabel {
    if (labels.empty()) return {};
    return [&labels](index_t id) { return labels[id]; };
  };
  return to_pajek_bipartite(h, from(vertex_labels), from(edge_labels));
}

std::string to_pajek_partition(const std::vector<Fig3Class>& classes) {
  std::ostringstream out;
  out << "*Vertices " << classes.size() << '\n';
  for (Fig3Class c : classes) out << static_cast<int>(c) << '\n';
  return out.str();
}

std::vector<Fig3Class> fig3_classes(const Hypergraph& h,
                                    const std::vector<index_t>& vertex_core,
                                    const std::vector<index_t>& edge_core,
                                    index_t k) {
  HP_REQUIRE(vertex_core.size() == h.num_vertices(),
             "fig3_classes: vertex core size mismatch");
  HP_REQUIRE(edge_core.size() == h.num_edges(),
             "fig3_classes: edge core size mismatch");
  std::vector<Fig3Class> classes;
  classes.reserve(h.num_vertices() + h.num_edges());
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    classes.push_back(vertex_core[v] >= k ? Fig3Class::kCoreProtein
                                          : Fig3Class::kProtein);
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    classes.push_back(edge_core[e] >= k ? Fig3Class::kCoreComplex
                                        : Fig3Class::kComplex);
  }
  return classes;
}

std::string to_pajek_graph(const graph::Graph& g,
                           const std::vector<std::string>& labels) {
  if (!labels.empty()) {
    HP_REQUIRE(labels.size() == g.num_vertices(),
               "to_pajek_graph: label count mismatch");
  }
  std::ostringstream out;
  out << "*Vertices " << g.num_vertices() << '\n';
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const std::string label =
        labels.empty() ? "v" + std::to_string(v) : labels[v];
    out << (v + 1) << ' ' << quote(label) << '\n';
  }
  out << "*Edges\n";
  for (index_t u = 0; u < g.num_vertices(); ++u) {
    for (index_t v : g.neighbors(u)) {
      if (u < v) out << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
  return out.str();
}

void save_pajek(const std::string& content, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error{"save_pajek: cannot open " + path};
  out << content;
  if (!out) throw std::runtime_error{"save_pajek: write failed for " + path};
}

}  // namespace hp::hyper
