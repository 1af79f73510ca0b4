// Ablation A: microbenchmarks of the hypergraph k-core.
//
//   * the bulk frontier peel (the paper's algorithm, Fig. 4, run as the
//     bulk-synchronous parallel algorithm its section 3 calls for), at
//     1/2/4 lanes
//   * naive set-comparison reference (what the paper argues against)
//
// Size sweep over random hypergraphs and a Cellzome-scale instance.
// Substrate counters (containment probes, cascaded deletions, peel
// rounds) are exported on the Cellzome run so the cost of the peel is
// empirically visible.
//
// Frontier ablation mode (scripts/ci.sh): invoked with --quick/--json,
// the binary skips google-benchmark and instead times the frontier
// peeling engine against its scan twin on a scaled Cellzome surrogate
// (--proteins, >= 10^6 in CI). Before any timing it self-checks that
// the engine equals the naive reference on the calibrated surrogate and
// its scan twin on the scaled one, bit for bit, and writes
// BENCH_kcore.json for the >= 2x speedup gate at 16 threads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "core/kcore.hpp"
#include "core/kcore_naive.hpp"
#include "par/thread_pool.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

hp::hyper::Hypergraph random_hypergraph(std::uint64_t seed,
                                        hp::index_t num_vertices,
                                        hp::index_t num_edges,
                                        hp::index_t max_size) {
  hp::Rng rng{seed};
  hp::hyper::HypergraphBuilder builder{num_vertices};
  std::vector<hp::index_t> members;
  for (hp::index_t e = 0; e < num_edges; ++e) {
    const hp::index_t size = 2 + static_cast<hp::index_t>(
                                     rng.uniform(max_size - 1));
    members.clear();
    for (hp::index_t i = 0; i < size; ++i) {
      members.push_back(
          static_cast<hp::index_t>(rng.uniform(num_vertices)));
    }
    builder.add_edge(members);
  }
  return builder.build();
}

const hp::hyper::Hypergraph& cellzome() {
  static const hp::hyper::Hypergraph h =
      hp::bio::cellzome_surrogate().hypergraph;
  return h;
}

void BM_KCoreOverlap(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KCoreOverlap)->Range(64, 4096)->Complexity();

void BM_KCoreNaive(benchmark::State& state) {
  const auto h = random_hypergraph(42, static_cast<hp::index_t>(state.range(0)),
                                   static_cast<hp::index_t>(state.range(0)),
                                   8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition_naive(h));
  }
  state.SetComplexityN(state.range(0));
}
// The naive reference is quadratic-plus; cap the sweep so the binary
// still completes quickly.
BENCHMARK(BM_KCoreNaive)->Range(64, 1024)->Complexity();

void BM_KCoreParallel(benchmark::State& state) {
  const auto h = random_hypergraph(42, 2048, 2048, 8);
  const hp::par::LaneLimit lanes{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h));
  }
}
BENCHMARK(BM_KCoreParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_KCoreCellzomeOverlap(benchmark::State& state) {
  const auto& h = cellzome();
  hp::hyper::PeelStats stats;
  for (auto _ : state) {
    stats = {};
    benchmark::DoNotOptimize(hp::hyper::core_decomposition(h, &stats));
  }
  // Substrate counters for the last run: containment probing plus
  // peel shape.
  state.counters["containment_probes"] =
      static_cast<double>(stats.containment_probes);
  state.counters["cascaded_deletions"] =
      static_cast<double>(stats.cascaded_edge_deletions);
  state.counters["peel_rounds"] = static_cast<double>(stats.peel_rounds);
  state.counters["peak_queue"] =
      static_cast<double>(stats.peak_queue_length);
}
BENCHMARK(BM_KCoreCellzomeOverlap);

void BM_KCoreCellzomeNaive(benchmark::State& state) {
  const auto& h = cellzome();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hp::hyper::core_decomposition_naive(h));
  }
}
BENCHMARK(BM_KCoreCellzomeNaive);

// --- Frontier-vs-scan ablation (scripts/ci.sh mode) ------------------

bool bit_identical(const hp::hyper::HyperCoreResult& a,
                   const hp::hyper::HyperCoreResult& b) {
  return a.max_core == b.max_core && a.vertex_core == b.vertex_core &&
         a.edge_core == b.edge_core && a.in_reduced == b.in_reduced &&
         a.level_vertices == b.level_vertices &&
         a.level_edges == b.level_edges;
}

/// The source revision the binary was built from, so a committed
/// BENCH_kcore.json names what it measured ("-dirty" marks local edits).
std::string git_revision() {
  FILE* pipe = popen("git -C \"" HP_SOURCE_DIR
                     "\" describe --always --dirty --abbrev=40 2>/dev/null",
                     "r");
  if (pipe == nullptr) return "unknown";
  char line[128] = {};
  std::string revision;
  if (std::fgets(line, sizeof line, pipe) != nullptr) revision = line;
  pclose(pipe);
  while (!revision.empty() && revision.back() == '\n') revision.pop_back();
  return revision.empty() ? "unknown" : revision;
}

template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    hp::Timer timer;
    benchmark::DoNotOptimize(fn());
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

int run_frontier_ablation(const hp::Args& args) {
  const hp::index_t proteins =
      static_cast<hp::index_t>(args.get_int("proteins", 1000000));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");
  const int reps = quick ? 2 : 3;

  std::printf("=== k-core frontier ablation: %d pool lanes, %d hardware ===\n",
              hp::par::ThreadPool::global().thread_count(),
              hp::par::hardware_threads());

  // Self-check 1 (paper scale): the engine must equal the naive
  // set-comparison reference bit for bit before any timing is trusted.
  {
    const auto& h = cellzome();
    if (!bit_identical(hp::hyper::core_decomposition(h),
                       hp::hyper::core_decomposition_naive(h))) {
      std::fprintf(stderr, "frontier ablation: engine and naive reference "
                           "disagree on the Cellzome surrogate\n");
      return 1;
    }
  }

  // The gate workload: a scaled surrogate where per-round |V| rescans
  // dominate the scan twin.
  hp::bio::CellzomeParams params = hp::bio::scaled_cellzome_params(proteins);
  const hp::hyper::Hypergraph big =
      hp::bio::cellzome_surrogate(params).hypergraph;
  std::printf("scaled surrogate: |V| = %llu, |F| = %llu, |pins| = %llu\n",
              static_cast<unsigned long long>(big.num_vertices()),
              static_cast<unsigned long long>(big.num_edges()),
              static_cast<unsigned long long>(big.num_pins()));

  // Self-check 2 (gate scale): one full run per engine, compared
  // bit-for-bit.
  {
    const auto frontier = hp::hyper::core_decomposition(big);
    const auto scan = hp::hyper::core_decomposition_scan(big);
    if (!bit_identical(frontier, scan)) {
      std::fprintf(stderr, "frontier ablation: engines disagree on the "
                           "scaled surrogate -- refusing to time\n");
      return 1;
    }
    std::printf("self-check ok: engines bit-identical (max_core = %u)\n",
                static_cast<unsigned>(frontier.max_core));
  }

  hp::hyper::PeelStats frontier_stats;
  const double frontier_seconds = best_seconds(reps, [&] {
    return hp::hyper::core_decomposition(big, &frontier_stats);
  });
  hp::hyper::PeelStats scan_stats;
  const double scan_seconds = best_seconds(reps, [&] {
    return hp::hyper::core_decomposition_scan(big, &scan_stats);
  });
  const double speedup =
      frontier_seconds > 0.0 ? scan_seconds / frontier_seconds : 0.0;

  std::printf("scan twin: %.3fs   frontier: %.3fs   speedup: %.2fx\n",
              scan_seconds, frontier_seconds, speedup);
  std::printf("frontier pushes: %llu   wasted: %llu\n",
              static_cast<unsigned long long>(frontier_stats.frontier_pushes),
              static_cast<unsigned long long>(frontier_stats.frontier_wasted));

  if (!json_path.empty()) {
    std::ofstream out{json_path};
    out << "{\n  \"benchmark\": \"bench_micro_kcore\",\n"
        << "  \"git_revision\": \"" << git_revision() << "\",\n"
        << "  \"hardware_threads\": " << hp::par::hardware_threads() << ",\n"
        << "  \"pool_lanes\": "
        << hp::par::ThreadPool::global().thread_count() << ",\n"
        << "  \"proteins\": " << proteins << ",\n"
        << "  \"num_vertices\": " << big.num_vertices() << ",\n"
        << "  \"num_edges\": " << big.num_edges() << ",\n"
        << "  \"self_check\": true,\n"
        << "  \"scan_seconds\": " << scan_seconds << ",\n"
        << "  \"frontier_seconds\": " << frontier_seconds << ",\n"
        << "  \"frontier_speedup\": " << speedup << ",\n"
        << "  \"frontier_pushes\": " << frontier_stats.frontier_pushes
        << ",\n"
        << "  \"frontier_wasted\": " << frontier_stats.frontier_wasted
        << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick/--json select the ablation mode used by scripts/ci.sh;
  // without them this is a normal google-benchmark binary.
  const hp::Args args{argc, argv};
  if (args.get_bool("quick", false) || !args.get("json", "").empty()) {
    return run_frontier_ablation(args);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
