// Pieces the three workloads share: input generation through the CLI,
// the open-loop socket generator, the in-process layer passes a traced
// run records spans around, the mutation stream, and the reduction of
// the recorded spans to per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "check/mutation.hpp"
#include "core/hypergraph.hpp"
#include "core/mutate/mutable_context.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// One generated dataset: the `generate` text output and its `.hps`
/// snapshot (raw codec).
struct Inputs {
  std::string text;
  std::string hps;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t pins = 0;
};

/// `hyperproteome generate` (scaled to `proteins`, or the calibrated
/// 1,361-protein instance when proteins == 0) then `snapshot convert`.
Inputs make_inputs(const Options& options, const std::string& stem,
                   std::uint64_t proteins, std::uint64_t seed);
void note_inputs(Result& result, const std::string& label, const Inputs& in);

/// Plain one-shot CLI output (in-process cli::run) for a query.
std::string one_shot(const std::vector<std::string>& argv);

// ---------------------------------------------------------- open loop

/// One request of a traffic mix and the reply it must get.
struct MixEntry {
  std::string command;
  std::string path;
  std::vector<std::pair<std::string, std::string>> args;
  std::string expected;  ///< masked one-shot output; unused for errors
  bool expect_error = false;
};

struct Planned {
  std::size_t entry = 0;  ///< index into the mix
  bool fresh = false;     ///< connect, send one request, close
};

struct LoopStats {
  double elapsed_s = 0.0;  ///< first scheduled send -> last reply
  std::size_t sent = 0;
  std::size_t failed = 0;  ///< errors and wrong answers
  /// By plan position: scheduled send -> checked reply; a failed
  /// request is infinitely slow, so it misses any latency limit.
  std::vector<double> latency_us;
  std::vector<double> lag_us;        ///< how late each send went out
  std::vector<double> transport_us;  ///< round trip minus server time
  std::vector<double> connect_us;    ///< fresh-connection set-up
};

/// Fire `plan` at `rate` requests/s from `senders` connections on a
/// fixed schedule; every reply is checked against its mix entry.
LoopStats open_loop(const hp::serve::Endpoint& endpoint,
                    const std::vector<MixEntry>& mix,
                    const std::vector<Planned>& plan, double rate, int senders);


/// Add a loop's transport, connect and generator-lag samples to the
/// serve.* per-layer metrics.
void record_loop_layers(const LoopStats& stats);

// ---------------------------------------------------- in-process layers

/// Reference outputs keyed by cold operation ("stats", "core",
/// "soverlap", "cover"); operations without one are not checked.
using References = std::map<std::string, std::string>;

/// The cold operations run in-process with a span around each layer
/// call: stats on .hps and on text, core, soverlap and cover --weights
/// deg2, each on a fresh session.
void cold_ops_traced(Result& result, const Inputs& inputs,
                     const References& refs);

/// Server layers on a warm key: a short open-loop burst over the socket
/// and an in-process parse/lease/render/handle/format loop that
/// alternates traced and untraced iterations to measure span overhead.
void server_layers(Result& result, hp::serve::Server& server,
                   const std::string& path, const std::string& expected_stats,
                   std::uint64_t seed);

// --------------------------------------------------------- mutations

/// Edits per MutableAnalysisContext::apply(), as `hyperproteome mutate`
/// applies them by default (--batch 1).
constexpr int kMutateBatchOps = 1;

struct MutateStats {
  std::vector<double> batch_ms;        ///< every batch, in order
  std::vector<double> incremental_ms;  ///< batches kept up in place
  std::vector<double> fallback_ms;     ///< batches that fell back to a full re-peel
  std::uint64_t ops = 0;
};

/// A MutableAnalysisContext over `base` with components() and cores()
/// already built, as the stream starts from.
std::unique_ptr<hp::hyper::MutableAnalysisContext> warm_mutable(
    const hp::hyper::Hypergraph& base);

/// Apply `trace` (from check::generate_trace) in batches of
/// kMutateBatchOps, each followed by a coherence read of components()
/// and cores(), until the trace or `deadline_ns` runs out. The final
/// cores are checked against a cold core_decomposition of the
/// materialised snapshot. Fills the mutate.* and (when `own_peel`)
/// peel.* layers.
MutateStats mutate_stream(Result& result, hp::hyper::MutableAnalysisContext& ctx,
                          const std::vector<hp::check::MutationOp>& trace,
                          std::uint64_t deadline_ns,
                          bool inject_fault, bool own_peel);

/// The write path on a traced run's own input: eight batches from a
/// fresh MutableAnalysisContext over the `.hps` snapshot.
void mutate_layers(Result& result, const Inputs& inputs, const Options& options);

// ------------------------------------------------------------ finish

/// Registry counters captured before the traced part of a run.
struct ObsBaseline {
  std::uint64_t par_tasks = 0;
  std::uint64_t par_steals = 0;
  std::uint64_t par_idle_ns = 0;
};
ObsBaseline obs_baseline();

/// Reduce the recorded spans and registry counters to the per-layer
/// metrics, check that each operation's layer self-times add up to its
/// wall time, and write the Chrome trace.
void finish_layers(Result& result, const Options& options,
                   const ObsBaseline& baseline,
                   hp::serve::Server& server);

}  // namespace perfbench
