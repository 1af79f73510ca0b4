// Figure 3 reproduction: the yeast protein-complex hypergraph drawn as
// a bipartite network in Pajek, with the maximum core highlighted.
//
// The paper: "Yellow and red nodes correspond to proteins, and pink and
// green nodes correspond to complexes. Red nodes correspond to proteins
// and green nodes to complexes in the maximum 6-core." This bench emits
// the same artifact -- a two-mode .net file plus a .clu partition with
// the four classes -- and prints the class census.
//
// Usage: bench_fig3_pajek [--seed N] [--prefix fig3]
#include <cstdio>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "core/pajek.hpp"
#include "core/svg.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  hp::bio::CellzomeParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const std::string prefix = args.get("prefix", "fig3");

  const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
  const hp::hyper::Hypergraph& h = data.hypergraph;
  const hp::hyper::HyperCoreResult cores = hp::hyper::core_decomposition(h);

  const auto classes = hp::hyper::fig3_classes(
      h, cores.vertex_core, cores.edge_core, cores.max_core);
  std::size_t census[4] = {0, 0, 0, 0};
  for (hp::hyper::Fig3Class c : classes) ++census[static_cast<int>(c)];

  std::puts("=== Figure 3: Pajek export of the hypergraph and its core ===\n");
  hp::Table t{{"node class (Pajek color)", "paper", "measured"}};
  t.row()
      .cell("non-core proteins (yellow)")
      .cell("1320")
      .cell(static_cast<std::uint64_t>(
          census[static_cast<int>(hp::hyper::Fig3Class::kProtein)]));
  t.row()
      .cell("core proteins (red)")
      .cell("41")
      .cell(static_cast<std::uint64_t>(
          census[static_cast<int>(hp::hyper::Fig3Class::kCoreProtein)]));
  t.row()
      .cell("non-core complexes (pink)")
      .cell("178")
      .cell(static_cast<std::uint64_t>(
          census[static_cast<int>(hp::hyper::Fig3Class::kComplex)]));
  t.row()
      .cell("core complexes (green)")
      .cell("54")
      .cell(static_cast<std::uint64_t>(
          census[static_cast<int>(hp::hyper::Fig3Class::kCoreComplex)]));
  t.print();

  hp::hyper::save_pajek(
      hp::hyper::to_pajek_bipartite(
          h, [&](hp::index_t v) { return data.proteins.name_of(v); },
          [&](hp::index_t e) { return data.complex_names.name_of(e); }),
      prefix + ".net");
  hp::hyper::save_pajek(hp::hyper::to_pajek_partition(classes),
                        prefix + ".clu");
  std::printf(
      "\nwrote %s.net (two-mode network, %u + %u nodes, %llu edges) and "
      "%s.clu (%u-core coloring)\n",
      prefix.c_str(), h.num_vertices(), h.num_edges(),
      static_cast<unsigned long long>(h.num_pins()), prefix.c_str(),
      cores.max_core);
  std::puts("open both in Pajek (Draw > Draw-Partition) for the Fig. 3 view.");

  // Offline rendering: force-directed layout of B(H) + SVG with the
  // paper's color legend, so the figure reproduces without Pajek.
  if (!args.get_bool("no-svg", false)) {
    hp::Timer timer;
    hp::hyper::LayoutParams layout;
    layout.iterations =
        static_cast<int>(args.get_int("layout-iterations", 60));
    layout.seed = params.seed;
    const std::string svg = hp::hyper::render_fig3_svg(
        h, cores.vertex_core, cores.edge_core, cores.max_core, layout);
    hp::hyper::save_svg(svg, prefix + ".svg");
    std::printf("wrote %s.svg (%d layout iterations, %s)\n", prefix.c_str(),
                layout.iterations,
                hp::format_duration(timer.seconds()).c_str());
  }
  return 0;
}
