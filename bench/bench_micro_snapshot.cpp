// Snapshot-open ablation for the mmap'd zero-copy format
// (src/core/snapshot/, DESIGN.md section 13).
//
// Workloads, per instance (the calibrated 1,361-protein surrogate and a
// scaled one for the CI gate) -- every row is "bytes on disk -> usable
// Hypergraph", measured best-of-N:
//
//   * text parse -- load_text: read + tokenize + builder. The format
//     every other loader is differentially tested against, and the
//     baseline the snapshot gate is measured from.
//   * snapshot open (warm) -- snapshot::open with the file already in
//     the page cache: mmap + header/offset-table checks, zero per-pin
//     work. This is the gated row.
//   * snapshot open (cold) -- the same after asking the kernel to drop
//     the file's cached pages (posix_fadvise DONTNEED; Linux only),
//     so the cost of faulting pages back in is visible.
//   * validate -- hyper::validate on the warm-opened snapshot: the one
//     O(pins) pass every untrusted load pays.
//   * load_dataset (.hps) -- cli::load_dataset on the warm snapshot:
//     what a CLI command or a server cache miss pays end to end (open,
//     validate, numbered names).
//
// The CI gates (scripts/ci.sh) assert, on the scaled surrogate, that
// warm snapshot open is >= 50x faster than the text parse
// ("gate_speedup" in BENCH_snapshot.json) and that load_dataset costs
// at most 2x open + validate ("load_dataset_ratio").
//
// The run self-checks: every loader's result must equal the text
// loader's structurally (operator==) and pass validate().
//
// Usage: bench_micro_snapshot [--seed N] [--proteins N] [--quick] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bio/cellzome_synth.hpp"
#include "cli/commands.hpp"
#include "core/hypergraph.hpp"
#include "core/hypergraph_io.hpp"
#include "core/snapshot/snapshot.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hp::index_t;
using hp::hyper::Hypergraph;

struct WorkloadTiming {
  std::string name;
  double seconds = 0.0;      // best-of-N open-to-usable latency
  std::size_t file_bytes = 0;
  double speedup = 0.0;      // text parse / this
};

struct InstanceTiming {
  std::string name;
  hp::count_t num_vertices = 0;
  hp::count_t num_edges = 0;
  hp::count_t num_pins = 0;
  std::vector<WorkloadTiming> workloads;
};

std::size_t file_size(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

/// Ask the kernel to forget the file's cached pages so the next open
/// faults them back from disk. Returns false where unsupported; the
/// cold row is then skipped rather than silently reported warm.
bool drop_page_cache(const std::string& path) {
#if defined(__linux__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  ::fsync(fd);  // DONTNEED only drops clean pages
  const bool ok = ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return false;
#endif
}

/// Best-of-N latency of `load`, with the result self-checked against
/// the text-loaded reference each repetition.
double time_loader(const std::function<Hypergraph()>& load,
                   const Hypergraph& reference, const char* what, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    hp::Timer timer;
    const Hypergraph h = load();
    const double s = timer.seconds();
    if (rep == 0 || s < best) best = s;
    if (!(h == reference)) {
      std::fprintf(stderr,
                   "bench_micro_snapshot: %s produced a different "
                   "hypergraph than the text loader\n",
                   what);
      std::exit(1);
    }
  }
  return best;
}

InstanceTiming run_instance(const std::string& name, const Hypergraph& base,
                            bool quick) {
  const int parse_reps = quick ? 2 : 4;
  const int open_reps = quick ? 8 : 16;

  const std::string text_path = "bench_snapshot_tmp.hyper";
  const std::string snap_path = "bench_snapshot_tmp.hps";
  hp::hyper::save_text(base, text_path);
  hp::hyper::snapshot::save(base, snap_path);

  // The differential reference, and a one-time deep check that the
  // mapped view is structurally valid (the timed loop only compares).
  const Hypergraph reference = hp::hyper::load_text(text_path);
  hp::hyper::validate(hp::hyper::snapshot::open(snap_path));

  InstanceTiming out;
  out.name = name;
  out.num_vertices = base.num_vertices();
  out.num_edges = base.num_edges();
  out.num_pins = base.num_pins();

  out.workloads.push_back(
      {"text parse",
       time_loader([&] { return hp::hyper::load_text(text_path); }, reference,
                   "text parse", parse_reps),
       file_size(text_path), 0.0});
  out.workloads.push_back(
      {"snapshot open (warm)",
       time_loader([&] { return hp::hyper::snapshot::open(snap_path); },
                   reference, "snapshot open", open_reps),
       file_size(snap_path), 0.0});
  if (drop_page_cache(snap_path)) {
    // Worst-of-N would time later (warm) reps; instead drop the cache
    // before every rep and keep the best, so the row stays cold.
    double best = 0.0;
    for (int rep = 0; rep < open_reps; ++rep) {
      drop_page_cache(snap_path);
      hp::Timer timer;
      const Hypergraph h = hp::hyper::snapshot::open(snap_path);
      // Touch every adjacency page: mmap defers the read to the fault.
      hp::count_t sum = 0;
      for (index_t v : h.edge_adjacency()) sum += v;
      const double s = timer.seconds();
      if (rep == 0 || s < best) best = s;
      if (sum == static_cast<hp::count_t>(-1)) std::exit(1);  // keep `sum` live
    }
    out.workloads.push_back({"snapshot open (cold)", best,
                             file_size(snap_path), 0.0});
  }
  {
    const Hypergraph mapped = hp::hyper::snapshot::open(snap_path);
    double best = 0.0;
    for (int rep = 0; rep < open_reps; ++rep) {
      hp::Timer timer;
      hp::hyper::validate(mapped);
      const double s = timer.seconds();
      if (rep == 0 || s < best) best = s;
    }
    out.workloads.push_back({"validate", best, file_size(snap_path), 0.0});
  }
  out.workloads.push_back(
      {"load_dataset (.hps)",
       time_loader([&] { return hp::cli::load_dataset(snap_path).hypergraph; },
                   reference, "load_dataset", open_reps),
       file_size(snap_path), 0.0});

  const double text_seconds = out.workloads.front().seconds;
  for (WorkloadTiming& w : out.workloads) {
    w.speedup = w.seconds > 0.0 ? text_seconds / w.seconds : 0.0;
  }

  for (const std::string& p : {text_path, snap_path}) {
    std::remove(p.c_str());
  }
  return out;
}

void print_instance(const InstanceTiming& inst) {
  std::printf("\n--- %s (|V| = %llu, |F| = %llu, |E| = %llu) ---\n",
              inst.name.c_str(),
              static_cast<unsigned long long>(inst.num_vertices),
              static_cast<unsigned long long>(inst.num_edges),
              static_cast<unsigned long long>(inst.num_pins));
  hp::Table t{{"loader", "latency", "file bytes", "vs text"}};
  for (const WorkloadTiming& w : inst.workloads) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.1fx", w.speedup);
    t.row()
        .cell(w.name)
        .cell(hp::format_duration(w.seconds))
        .cell(std::to_string(w.file_bytes))
        .cell(speedup);
  }
  t.print();
}

double workload_seconds(const InstanceTiming& inst, const std::string& name) {
  for (const WorkloadTiming& w : inst.workloads) {
    if (w.name == name) return w.seconds;
  }
  return 0.0;
}

void write_json(const std::string& path,
                const std::vector<InstanceTiming>& instances,
                double gate_speedup, double load_dataset_ratio) {
  std::ofstream out{path};
  out << "{\n  \"benchmark\": \"bench_micro_snapshot\",\n"
      << "  \"gate_speedup\": " << gate_speedup << ",\n"
      << "  \"load_dataset_ratio\": " << load_dataset_ratio << ",\n"
      << "  \"instances\": [\n";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const InstanceTiming& inst = instances[i];
    out << "    {\n      \"name\": \"" << inst.name << "\",\n"
        << "      \"num_vertices\": " << inst.num_vertices << ",\n"
        << "      \"num_edges\": " << inst.num_edges << ",\n"
        << "      \"num_pins\": " << inst.num_pins
        << ",\n      \"workloads\": [\n";
    for (std::size_t j = 0; j < inst.workloads.size(); ++j) {
      const WorkloadTiming& w = inst.workloads[j];
      out << "        {\"name\": \"" << w.name
          << "\", \"seconds\": " << w.seconds
          << ", \"file_bytes\": " << w.file_bytes
          << ", \"speedup\": " << w.speedup << "}"
          << (j + 1 < inst.workloads.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (i + 1 < instances.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");
  // The gate is defined on the 100k surrogate, so --quick does not
  // shrink the instance (only the repetition counts).
  const index_t scaled_target =
      static_cast<index_t>(args.get_int("proteins", 100000));

  std::printf("=== snapshot format: mmap open vs text parse ===\n");

  std::vector<InstanceTiming> instances;
  {
    hp::bio::CellzomeParams params;
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(
        run_instance("cellzome calibrated", data.hypergraph, quick));
  }
  {
    hp::bio::CellzomeParams params =
        hp::bio::scaled_cellzome_params(scaled_target);
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    instances.push_back(
        run_instance("cellzome scaled", data.hypergraph, quick));
  }

  for (const InstanceTiming& inst : instances) print_instance(inst);

  // Gate values, on the scaled instance: warm mmap open vs text parse,
  // and what load_dataset adds on top of open + validate.
  const InstanceTiming& scaled = instances.back();
  const double warm_open = workload_seconds(scaled, "snapshot open (warm)");
  const double gate_speedup =
      warm_open > 0.0 ? workload_seconds(scaled, "text parse") / warm_open
                      : 0.0;
  const double load_dataset_ratio =
      workload_seconds(scaled, "load_dataset (.hps)") /
      (warm_open + workload_seconds(scaled, "validate"));
  std::printf("\nscaled-surrogate gate speedup (warm open vs text parse): "
              "%.1fx\n",
              gate_speedup);
  std::printf("scaled-surrogate load_dataset / (open + validate): %.2f\n",
              load_dataset_ratio);

  if (!json_path.empty()) {
    write_json(json_path, instances, gate_speedup, load_dataset_ratio);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
