// Table 1 reproduction: hypergraph statistics and maximum-core
// computations on the Cellzome hypergraph and on hypergraphs derived
// from Matrix Market-style sparse matrices.
//
// Paper columns: |V|, |F|, |E|, Delta_V, Delta_F, Delta_2,F, max core,
// core |V|, core |F|, time. The original bfw/fidap/bcsstk/utm matrices
// are replaced by synthetic matrices with the same structural character
// (see DESIGN.md); sizes are scaled so the full sweep runs in seconds.
// The trend being reproduced: run time grows with the core size and
// with Delta_2,F.
//
// The peel-substrate counters (containment probes, cascaded deletions,
// peel rounds) are reported per row with --peel-stats, making the
// complexity claim an observable: probes should track |E| * Delta_2,F
// across the sweep, not |F|^2.
//
// Usage: bench_table1_cores [--seed N] [--skip-large] [--peel-stats]
//                           [--trace out.json]
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/context/analysis_context.hpp"
#include "core/kcore.hpp"
#include "core/overlap.hpp"
#include "core/stats.hpp"
#include "mm/mm_synth.hpp"
#include "mm/mm_to_hypergraph.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct NamedHypergraph {
  std::string name;
  std::string family;  // which Matrix Market family it stands in for
  hp::hyper::Hypergraph hypergraph;
};

void add_row(hp::Table& table, const NamedHypergraph& item,
             hp::hyper::PeelStats* stats) {
  // One artifact cache per row; Delta_2,F comes from the count-only
  // pass, so no row builds the overlap table.
  const hp::hyper::AnalysisContext ctx{item.hypergraph};
  const hp::hyper::Hypergraph& h = ctx.hypergraph();
  const hp::index_t delta2 = hp::hyper::max_edge_degree2(h);

  hp::Timer timer;
  const hp::hyper::HyperCoreResult& cores = ctx.cores();
  const double seconds = timer.seconds();
  if (stats != nullptr) *stats = ctx.core_peel_stats();

  table.row()
      .cell(item.name)
      .cell(static_cast<std::uint64_t>(h.num_vertices()))
      .cell(static_cast<std::uint64_t>(h.num_edges()))
      .cell(static_cast<std::uint64_t>(h.num_pins()))
      .cell(static_cast<std::uint64_t>(h.max_vertex_degree()))
      .cell(static_cast<std::uint64_t>(h.max_edge_size()))
      .cell(static_cast<std::uint64_t>(delta2))
      .cell(static_cast<std::uint64_t>(cores.max_core))
      .cell(static_cast<std::uint64_t>(
          cores.core_vertices(cores.max_core).size()))
      .cell(static_cast<std::uint64_t>(
          cores.core_edges(cores.max_core).size()))
      .cell(hp::format_duration(seconds));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool skip_large = args.get_bool("skip-large", false);
  const bool peel_stats = args.get_bool("peel-stats", false);
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) hp::obs::set_tracing_enabled(true);

  std::puts(
      "=== Table 1: hypergraphs and their maximum cores ===\n"
      "(synthetic stand-ins for the Matrix Market matrices; the Cellzome\n"
      "row is the calibrated surrogate. Paper reference for Cellzome:\n"
      "|V| = 1361, |F| = 232, max core 6 with 41 vertices / 54 edges,\n"
      "0.47 s on a 2 GHz Xeon.)\n");

  std::vector<NamedHypergraph> items;
  {
    hp::bio::CellzomeParams p;
    p.seed = seed;
    items.push_back(
        {"cellzome", "protein complexes",
         hp::bio::cellzome_surrogate(p).hypergraph});
  }
  {
    hp::Rng rng{seed ^ 1};
    items.push_back({"bfw_s (banded FEM)", "bfw398a",
                     hp::mm::row_net_hypergraph(
                         hp::mm::synthesize_banded(398, 6, 0.65, rng))});
  }
  {
    hp::Rng rng{seed ^ 2};
    items.push_back({"fdp_s (fluid blocks)", "fidap (small)",
                     hp::mm::row_net_hypergraph(
                         hp::mm::synthesize_fem_blocks(1500, 12, 2500, rng))});
  }
  {
    hp::Rng rng{seed ^ 3};
    items.push_back(
        {"stk (stiffness)", "bcsstk",
         hp::mm::row_net_hypergraph(
             hp::mm::synthesize_stiffness(4000, 8, 5000, rng))});
  }
  {
    hp::Rng rng{seed ^ 4};
    items.push_back({"utm (tokamak)", "utm",
                     hp::mm::row_net_hypergraph(
                         hp::mm::synthesize_tokamak(900, 5, 6, 0.5, rng))});
  }
  if (!skip_large) {
    hp::Rng rng{seed ^ 5};
    items.push_back(
        {"fdp_l (fluid blocks)", "fidap (large)",
         hp::mm::row_net_hypergraph(
             hp::mm::synthesize_fem_blocks(8000, 16, 12000, rng))});
  }

  hp::Table table{{"hypergraph", "|V|", "|F|", "|E|", "dV", "dF", "d2F",
                   "max core", "core |V|", "core |F|", "time"}};
  std::vector<hp::hyper::PeelStats> stats(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    add_row(table, items[i], peel_stats ? &stats[i] : nullptr);
  }
  table.print();

  if (peel_stats) {
    std::puts("\n=== peel substrate counters ===");
    hp::Table counters{{"hypergraph", "probes", "cascaded", "rounds",
                        "peak queue"}};
    for (std::size_t i = 0; i < items.size(); ++i) {
      counters.row()
          .cell(items[i].name)
          .cell(stats[i].containment_probes)
          .cell(stats[i].cascaded_edge_deletions)
          .cell(stats[i].peel_rounds)
          .cell(stats[i].peak_queue_length);
    }
    counters.print();
  }

  std::puts(
      "\ntrend reproduced from the paper: run time grows with core size "
      "and Delta_2,F; large cores (stiffness/fluid rows) dominate the "
      "sweep; the peel is the bulk-synchronous parallel algorithm the paper "
      "calls for (see bench_micro_kcore).");
  if (!trace_path.empty()) {
    hp::obs::write_chrome_trace_file(trace_path);
    std::printf("\nwrote trace %s\n", trace_path.c_str());
  }
  return 0;
}
