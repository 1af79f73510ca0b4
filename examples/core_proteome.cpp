// Core proteome analysis on the Cellzome-scale surrogate: compute the
// maximum hypergraph core, extract it as a standalone hypergraph, list
// its proteins, and test it for essentiality/homology enrichment --
// the full section-3 workflow.
//
//   $ ./core_proteome [--seed N] [--k K]
#include <cstdio>

#include "bio/cellzome_synth.hpp"
#include "bio/enrichment.hpp"
#include "core/kcore.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  hp::bio::CellzomeParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20040426));

  const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
  const hp::hyper::Hypergraph& h = data.hypergraph;

  const hp::hyper::HyperCoreResult cores = hp::hyper::core_decomposition(h);
  const hp::index_t k = static_cast<hp::index_t>(
      args.get_int("k", static_cast<std::int64_t>(cores.max_core)));
  std::printf("maximum core: k = %u; analysing the %u-core\n\n",
              cores.max_core, k);

  const auto core_vertices = cores.core_vertices(k);
  const hp::hyper::SubHypergraph core = hp::hyper::extract_core(h, cores, k);
  std::printf("%u-core: %u proteins, %u complexes\n", k,
              core.hypergraph.num_vertices(), core.hypergraph.num_edges());

  std::printf("\ncore proteins (first 20):");
  for (std::size_t i = 0; i < core_vertices.size() && i < 20; ++i) {
    std::printf(" %s", data.proteins.name_of(core_vertices[i]).c_str());
  }
  std::printf("%s\n", core_vertices.size() > 20 ? " ..." : "");

  // Core complexes and their residual sizes inside the core.
  std::printf("\ncore complexes (first 10, with residual sizes):\n");
  for (hp::index_t e = 0;
       e < core.hypergraph.num_edges() && e < 10; ++e) {
    std::printf("  %s: %u core members\n",
                data.complex_names.name_of(core.edge_to_parent[e]).c_str(),
                core.hypergraph.edge_size(e));
  }

  // Enrichment against the simulated annotation source.
  hp::Rng rng{params.seed ^ 0xE5ULL};
  const hp::bio::AnnotationSet annotations = hp::bio::simulate_annotations(
      h.num_vertices(), core_vertices, {}, rng);
  const hp::bio::CoreProteomeReport report =
      hp::bio::core_proteome_report(core_vertices, annotations);

  std::printf(
      "\nannotation summary: %llu unknown, %llu known (%llu essential), "
      "%llu with homologs\n",
      static_cast<unsigned long long>(report.core_unknown),
      static_cast<unsigned long long>(report.core_known),
      static_cast<unsigned long long>(report.core_known_essential),
      static_cast<unsigned long long>(report.core_homologs));
  std::printf("essential enrichment: %.2fx (p = %.2e)\n",
              report.essential_enrichment.fold_enrichment,
              report.essential_enrichment.p_value);
  std::printf("homolog enrichment:   %.2fx (p = %.2e)\n",
              report.homolog_enrichment.fold_enrichment,
              report.homolog_enrichment.p_value);
  return 0;
}
