// Model-comparison walkthrough: load (or synthesize) a protein-complex
// dataset and contrast the hypergraph against the paper's two baseline
// graph representations on the three axes the paper argues --
// information loss, storage, and the artifacts each model introduces.
//
//   $ ./compare_models [--file complexes.tsv] [--seed N]
#include <cstdio>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "bio/complex_io.hpp"
#include "bio/core_recovery.hpp"
#include "core/kcore.hpp"
#include "core/projection.hpp"
#include "core/soverlap.hpp"
#include "graph/graph_kcore.hpp"
#include "graph/graph_stats.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  hp::bio::ComplexDataset data;
  if (args.has("file")) {
    data = hp::bio::load_complex_table(args.get("file", ""));
  } else {
    hp::bio::CellzomeParams params;
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20040426));
    data = hp::bio::cellzome_surrogate(params);
    std::puts("(no --file given; using the Cellzome-scale surrogate)");
  }
  const hp::hyper::Hypergraph& h = data.hypergraph;

  // Axis 1: storage.
  const hp::hyper::RepresentationCosts costs =
      hp::hyper::representation_costs(h);
  std::puts("\n[storage]");
  std::printf("  hypergraph:        %8llu pins\n",
              static_cast<unsigned long long>(costs.hypergraph_pins));
  std::printf("  clique expansion:  %8llu edges (%.1fx)\n",
              static_cast<unsigned long long>(costs.clique_edges),
              static_cast<double>(costs.clique_edges) /
                  static_cast<double>(costs.hypergraph_pins));
  std::printf("  star expansion:    %8llu edges\n",
              static_cast<unsigned long long>(costs.star_edges));
  std::printf("  intersection graph:%8llu edges\n",
              static_cast<unsigned long long>(costs.intersection_edges));

  // Axis 2: artifacts. Clique expansion manufactures clustering; the
  // intersection graph forgets the proteins entirely.
  const hp::graph::Graph clique = hp::hyper::clique_expansion(h);
  std::puts("\n[artifacts]");
  std::printf("  clique expansion clustering coefficient: %.3f "
              "(inflated by construction)\n",
              hp::graph::average_clustering_coefficient(clique));
  std::printf("  intersection graph: %u complex nodes, 0 protein nodes "
              "(proteins unrepresented)\n",
              hp::hyper::intersection_graph(h).num_vertices());

  // Axis 3: analysis quality. Compare the core each model finds.
  const hp::hyper::HyperCoreResult hcores = hp::hyper::core_decomposition(h);
  const hp::graph::CoreDecomposition gcores =
      hp::graph::core_decomposition(clique);
  std::puts("\n[core detection]");
  std::printf("  hypergraph maximum core: k = %u, %zu proteins\n",
              hcores.max_core,
              hcores.core_vertices(hcores.max_core).size());
  std::printf("  clique-graph maximum core: k = %u, %zu proteins\n",
              gcores.max_core, gcores.max_core_vertices().size());

  // The s-overlap ladder: what the plain intersection graph cannot see.
  const std::vector<hp::hyper::SOverlapRow> census =
      hp::hyper::s_overlap_census(hp::hyper::OverlapTable{h});
  std::puts("\n[s-overlap ladder] (complex pairs sharing >= s proteins)");
  for (const hp::hyper::SOverlapRow& row : census) {
    if (row.s > 6) {
      std::printf("  ... up to s = %zu\n", census.size());
      break;
    }
    std::printf("  s = %u: %llu pairs\n", row.s,
                static_cast<unsigned long long>(row.edges));
  }
  return 0;
}
