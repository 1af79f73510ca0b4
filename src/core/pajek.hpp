// Pajek export -- the drawing pipeline of the paper's Figure 3.
//
// The paper renders the yeast protein-complex hypergraph as a bipartite
// ("two-mode") network in Pajek, with proteins/complexes colored by
// membership in the maximum core (red/green for core protein/complex,
// yellow/pink otherwise). This module writes:
//
//   * the two-mode .net file (vertices = proteins then complexes,
//     edges = memberships), and
//   * a .clu partition file assigning each node a class, which Pajek
//     uses to color the drawing.
//
// One-mode graphs (projections) can also be exported.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/hypergraph.hpp"
#include "graph/graph.hpp"

namespace hp::hyper {

/// Node classes used for the Figure 3 coloring.
enum class Fig3Class : int {
  kProtein = 0,      ///< yellow in the paper
  kCoreProtein = 1,  ///< red
  kComplex = 2,      ///< pink
  kCoreComplex = 3,  ///< green
};

/// Label of one node, by its vertex or hyperedge id.
using PajekLabel = std::function<std::string(index_t)>;

/// Two-mode Pajek network of the hypergraph. `vertex_label` /
/// `edge_label` are optional (empty = use generic v<i> / f<i> names) and
/// are called once per node, so labels need not exist up front.
std::string to_pajek_bipartite(const Hypergraph& h,
                               const PajekLabel& vertex_label = {},
                               const PajekLabel& edge_label = {});

/// The same from label vectors (empty = generic names); when given they
/// must match the vertex/edge counts.
std::string to_pajek_bipartite(const Hypergraph& h,
                               const std::vector<std::string>& vertex_labels,
                               const std::vector<std::string>& edge_labels);

/// Pajek .clu partition for the bipartite network: one class id per
/// node (proteins first, then complexes), from the Fig3Class of each.
std::string to_pajek_partition(const std::vector<Fig3Class>& classes);

/// Build the Figure 3 classes from a core decomposition level: protein
/// v is kCoreProtein iff vertex_core[v] >= k, complex e is kCoreComplex
/// iff edge_core[e] >= k.
std::vector<Fig3Class> fig3_classes(const Hypergraph& h,
                                    const std::vector<index_t>& vertex_core,
                                    const std::vector<index_t>& edge_core,
                                    index_t k);

/// One-mode Pajek network of a plain graph.
std::string to_pajek_graph(const graph::Graph& g,
                           const std::vector<std::string>& labels = {});

/// File helpers; throw std::runtime_error on I/O failure.
void save_pajek(const std::string& content, const std::string& path);

}  // namespace hp::hyper
