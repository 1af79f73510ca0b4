// Quickstart: build a protein-complex hypergraph, inspect it, compute
// its core decomposition, and pick a bait cover -- the whole public API
// surface in ~60 lines.
//
//   $ ./quickstart
#include <cstdio>

#include "bio/complex_io.hpp"
#include "core/cover.hpp"
#include "core/kcore.hpp"
#include "core/stats.hpp"
#include "core/traversal.hpp"

int main() {
  // 1. Parse a complex membership table (the format of public complex
  //    catalogues: "ComplexName<TAB>Protein1<TAB>Protein2...").
  const char* table =
      "Arp2/3\tARP2\tARP3\tARC15\tARC18\tARC19\n"
      "SAGA\tGCN5\tADA2\tSPT7\tTRA1\n"
      "SLIK\tGCN5\tADA2\tSPT7\tRTG2\n"
      "ADA\tGCN5\tADA2\tAHC1\n"
      "NuA4\tESA1\tTRA1\tEPL1\n"
      "Mediator\tSRB4\tSRB5\tMED6\tGCN5\n";
  const hp::bio::ComplexDataset data = hp::bio::parse_complex_table(table);
  const hp::hyper::Hypergraph& h = data.hypergraph;

  // 2. Summary statistics (section 2 of the paper).
  std::printf("%s\n", hp::hyper::to_string(hp::hyper::summarize(h)).c_str());

  // 3. Distances: how many complexes apart are two proteins?
  const hp::index_t arp2 = data.proteins.id_of("ARP2");
  const hp::index_t med6 = data.proteins.id_of("MED6");
  const auto dist = hp::hyper::bfs_distances(h, arp2);
  if (dist[med6] != hp::kInvalidIndex) {
    std::printf("distance(ARP2, MED6) = %u hyperedges\n\n", dist[med6]);
  } else {
    std::printf("ARP2 and MED6 are in different components\n\n");
  }

  // 4. Core decomposition (section 3): the densest sub-proteome.
  const hp::hyper::HyperCoreResult cores = hp::hyper::core_decomposition(h);
  std::printf("maximum core: k = %u\n", cores.max_core);
  std::printf("core proteins:");
  for (hp::index_t v : cores.core_vertices(cores.max_core)) {
    std::printf(" %s", data.proteins.name_of(v).c_str());
  }
  std::printf("\ncore complexes:");
  for (hp::index_t e : cores.core_edges(cores.max_core)) {
    std::printf(" %s", data.complex_names.name_of(e).c_str());
  }
  std::printf("\n\n");

  // 5. Bait selection (section 4): a minimum set of proteins whose TAP
  //    pulldowns identify every complex.
  const hp::hyper::CoverResult cover =
      hp::hyper::greedy_vertex_cover(h, hp::hyper::unit_weights(h));
  std::printf("greedy bait cover (%zu proteins, avg degree %.2f):",
              cover.vertices.size(), cover.average_degree);
  for (hp::index_t v : cover.vertices) {
    std::printf(" %s", data.proteins.name_of(v).c_str());
  }
  std::printf("\n");
  return 0;
}
