// mutate_stream: a single-threaded stream of seeded edit batches
// (check::generate_trace) on the 10^5 surrogate through
// MutableAnalysisContext, each batch followed by a coherence read of
// components() and cores(). It drives the context and peel layers
// through the write path: bounded core repairs and their fallbacks to a
// full re-peel.
#include <string>
#include <vector>

#include "core/snapshot/snapshot.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kTraceOps = 6000;  ///< 13x the ~450 edits a 30 s run applies

}  // namespace

void run_mutate_stream(const Options& options, Result& result) {
  const std::uint64_t proteins = options.tiny ? 5000 : 100000;
  Inputs in;
  std::unique_ptr<hp::hyper::Hypergraph> base;
  std::unique_ptr<hp::hyper::MutableAnalysisContext> ctx;
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    ctx.reset();
    base.reset();
    const std::uint64_t start = now_ns();
    in = make_inputs(options, "m100k", proteins, options.seed);
    base = std::make_unique<hp::hyper::Hypergraph>(hp::hyper::snapshot::open(in.hps));
    hp::hyper::validate(*base);
    ctx = warm_mutable(*base);
    setup_s.push_back(seconds_since(start));
  }
  report_setup(result, setup_s);
  note_inputs(result, "surrogate_100k", in);

  hp::check::MutationTraceOptions trace_options;
  trace_options.num_ops = kTraceOps;
  const std::vector<hp::check::MutationOp> trace =
      hp::check::generate_trace(*base, options.seed, trace_options);

  const double stream_share = options.trace ? 0.5 : 1.0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * stream_share * 1e9);
  const ObsBaseline baseline = obs_baseline();
  Tracer::get().set_enabled(options.trace);
  const MutateStats stats =
      mutate_stream(result, *ctx, trace, deadline, options.inject_fault, true);
  result.provenance["samples"] =
      std::to_string(stats.batch_ms.size()) + " batches of " + std::to_string(kMutateBatchOps) +
      " edit (" + std::to_string(stats.incremental_ms.size()) + " kept up in place, " +
      std::to_string(stats.fallback_ms.size()) + " fell back)";

  if (options.trace) {
    // The layers the stream skips, on the same instance.
    std::unique_ptr<hp::serve::Server> server = start_server(options);
    const std::string expected = one_shot({"stats", in.hps});
    hp::serve::Client{server->endpoint()}.query("stats", in.hps);
    server_layers(result, *server, in.hps, expected, options.seed);
    cold_ops_traced(result, in, {{"stats", expected}});
    Tracer::get().set_enabled(false);
    finish_layers(result, options, baseline, *server);
    stop_server(server);
    return;
  }

  // With one edit per apply() a sixth to a quarter of the batches keep
  // their cores up in place (under a millisecond at 10^5) and the rest
  // fall back to a full re-peel, so the median and p90 lie among the
  // fallbacks. The mean moves with both the cost of each path and the
  // share of fallbacks, and it varies least from run to run; the two
  // paths are also printed apart.
  const double mean_ms = mean(stats.batch_ms);
  const double p90 = quantile(stats.batch_ms, 0.9);
  result.set(result.named, "update_mean_ms", mean_ms, "ms");
  result.set(result.named, "update_p50_ms", median(stats.batch_ms), "ms");
  result.set(result.named, "update_p90_ms", p90, "ms");
  if (!stats.incremental_ms.empty()) {
    result.set(result.named, "update_incremental_p50_ms", median(stats.incremental_ms), "ms");
  }
  if (!stats.fallback_ms.empty()) {
    result.set(result.named, "update_fallback_p50_ms", median(stats.fallback_ms), "ms");
  }
  result.set(result.uniform, "op_mean_ms", mean_ms, "ms");
  result.set(result.uniform, "op_tail_ms", p90, "ms");
}

}  // namespace perfbench
