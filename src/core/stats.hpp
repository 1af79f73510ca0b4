// Summary statistics of a hypergraph: everything section 2 and Table 1
// of the paper report.
#pragma once

#include <string>

#include "core/hypergraph.hpp"
#include "core/traversal.hpp"
#include "util/histogram.hpp"
#include "util/linreg.hpp"

namespace hp::hyper {

/// One-stop structural summary (the Table 1 row minus the core columns).
struct HypergraphSummary {
  index_t num_vertices = 0;       ///< |V|
  index_t num_edges = 0;          ///< |F|
  count_t num_pins = 0;           ///< |E|
  index_t max_vertex_degree = 0;  ///< Delta_V
  index_t max_edge_size = 0;      ///< Delta_F
  index_t max_degree2 = 0;        ///< Delta_2,F
  index_t num_components = 0;
  index_t largest_component_vertices = 0;
  index_t largest_component_edges = 0;
  index_t degree_one_vertices = 0;  ///< paper: 846 for Cellzome
  index_t isolated_vertices = 0;
  double mean_vertex_degree = 0.0;
  double mean_edge_size = 0.0;
};

HypergraphSummary summarize(const Hypergraph& h);

/// Assemble the summary from precomputed parts (the AnalysisContext
/// path: components are a shared artifact there, not rebuilt per
/// summary). `max_degree2` is Delta_2,F (max_edge_degree2).
HypergraphSummary summarize(const Hypergraph& h,
                            const HyperComponents& components,
                            index_t max_degree2);

/// Histogram of vertex degrees (index = degree).
Histogram vertex_degree_histogram(const Hypergraph& h);

/// Histogram of hyperedge cardinalities.
Histogram edge_size_histogram(const Hypergraph& h);

/// Power-law fit of the vertex degree distribution (Fig. 1:
/// log10 c = 3.161, gamma = 2.528, R^2 = 0.963).
PowerLawFit vertex_degree_power_law(const Hypergraph& h);

/// Same fit from an already-computed degree histogram.
PowerLawFit vertex_degree_power_law(const Histogram& degree_histogram);

/// Both candidate fits of the complex size distribution. The paper
/// observes neither is good; callers compare the two R^2 values.
struct EdgeSizeFits {
  PowerLawFit power;
  ExponentialFit exponential;
};

EdgeSizeFits edge_size_fits(const Hypergraph& h);

/// Same fits from an already-computed size histogram.
EdgeSizeFits edge_size_fits(const Histogram& size_histogram);

/// Human-readable multi-line rendering of a summary.
std::string to_string(const HypergraphSummary& s);

}  // namespace hp::hyper
