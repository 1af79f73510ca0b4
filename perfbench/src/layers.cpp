#include "layers.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/mutation.hpp"
#include "cli/commands.hpp"
#include "cli/query.hpp"
#include "core/context/analysis_context.hpp"
#include "core/cover.hpp"
#include "core/hypergraph_io.hpp"
#include "core/kcore.hpp"
#include "core/mutate/mutable_context.hpp"
#include "core/snapshot/snapshot.hpp"
#include "core/soverlap.hpp"
#include "core/traversal.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/context_pool.hpp"
#include "serve/protocol.hpp"
#include "util/args.hpp"

namespace perfbench {

namespace proto = hp::serve::proto;

namespace {

/// Per-layer samples that are not span durations (transport, lag, ...).
std::mutex g_samples_mutex;
std::map<std::string, std::vector<double>> g_samples;

void add_samples(const std::string& name, const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  std::vector<double>& into = g_samples[name];
  into.insert(into.end(), values.begin(), values.end());
}

hp::Args make_args(const std::vector<std::string>& argv) {
  std::vector<const char*> raw{"hyperproteome"};
  for (const std::string& arg : argv) raw.push_back(arg.c_str());
  return hp::Args{static_cast<int>(raw.size()), raw.data()};
}

std::string run_query(hp::cli::QuerySession& session,
                      const std::vector<std::string>& argv) {
  const hp::Args args = make_args(argv);
  std::ostringstream out;
  const int code = hp::cli::run_query(session, argv.at(0), args, out);
  if (code != 0) throw std::runtime_error(argv[0] + " exited with " + std::to_string(code));
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------- inputs

Inputs make_inputs(const Options& options, const std::string& stem,
                   std::uint64_t proteins, std::uint64_t seed) {
  const std::string cli = options.bin_dir + "/hyperproteome";
  Inputs in;
  in.text = options.work_dir + "/" + stem + ".hyper";
  in.hps = options.work_dir + "/" + stem + ".hps";
  std::vector<std::string> generate{cli, "generate", in.text, "--seed",
                                    std::to_string(seed)};
  if (proteins != 0) {
    generate.push_back("--proteins");
    generate.push_back(std::to_string(proteins));
  }
  const std::string log = options.work_dir + "/" + stem + ".log";
  if (run_process(generate, log, log).exit_code != 0) {
    throw std::runtime_error("generate failed: " + read_file(log));
  }
  if (run_process({cli, "snapshot", "convert", in.text, in.hps}, log, log).exit_code != 0) {
    throw std::runtime_error("snapshot convert failed: " + read_file(log));
  }
  const hp::hyper::snapshot::Info info = hp::hyper::snapshot::info(in.hps);
  if (info.codec != hp::hyper::snapshot::Codec::kNone) {
    throw std::runtime_error("expected a raw-codec snapshot");
  }
  in.vertices = info.num_vertices;
  in.edges = info.num_edges;
  in.pins = info.num_pins;
  return in;
}

void note_inputs(Result& result, const std::string& label, const Inputs& in) {
  result.provenance["input." + label] =
      std::to_string(in.vertices) + " vertices, " + std::to_string(in.edges) +
      " edges, " + std::to_string(in.pins) + " pins";
}

std::string one_shot(const std::vector<std::string>& argv) {
  const hp::Args args = make_args(argv);
  std::ostringstream out;
  const int code = hp::cli::run(args, out);
  if (code != 0) throw std::runtime_error("one-shot " + argv.at(0) + " failed");
  return out.str();
}

// ------------------------------------------------------------- open loop

LoopStats open_loop(const hp::serve::Endpoint& endpoint,
                    const std::vector<MixEntry>& mix,
                    const std::vector<Planned>& plan, double rate, int senders) {
  using Clock = std::chrono::steady_clock;
  struct Lane {
    std::vector<double> transport_us, connect_us;
    std::size_t failed = 0;
    std::uint64_t last_done_ns = 0;
  };
  LoopStats stats;
  stats.sent = plan.size();
  stats.latency_us.assign(plan.size(), std::numeric_limits<double>::infinity());
  stats.lag_us.assign(plan.size(), 0.0);
  std::vector<Lane> lanes(static_cast<std::size_t>(senders));
  std::vector<std::unique_ptr<hp::serve::Client>> clients;
  for (int s = 0; s < senders; ++s) {
    clients.push_back(std::make_unique<hp::serve::Client>(endpoint));
  }
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const std::uint64_t start_ns =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     start.time_since_epoch())
                                     .count());

  const auto sender = [&](std::size_t lane_index) {
    // Wake at the scheduled instant, not up to 50 us later (the default
    // timer slack), so the generator's own lateness stays small.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Lane& lane = lanes[lane_index];
    std::unique_ptr<hp::serve::Client>& client = clients[lane_index];
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.size()) break;
      const MixEntry& entry = mix[plan[i].entry];
      const std::uint64_t scheduled =
          start_ns + static_cast<std::uint64_t>(1e9 * static_cast<double>(i) / rate);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(scheduled)));
      const std::uint64_t sent = now_ns();
      stats.lag_us[i] = static_cast<double>(sent - std::min(sent, scheduled)) / 1e3;

      proto::Request request;
      request.command = entry.command;
      request.path = entry.path;
      request.args = entry.args;
      bool ok = false;
      try {
        Scope op("op.request");
        std::unique_ptr<hp::serve::Client> fresh;
        if (plan[i].fresh) {
          const std::uint64_t connect_start = now_ns();
          Scope span("serve.connect");
          fresh = std::make_unique<hp::serve::Client>(endpoint);
          lane.connect_us.push_back(static_cast<double>(now_ns() - connect_start) / 1e3);
        }
        proto::Response response;
        const std::uint64_t round_start = now_ns();
        {
          Scope span("serve.roundtrip");
          response = (fresh ? *fresh : *client).call(request);
        }
        lane.transport_us.push_back(static_cast<double>(now_ns() - round_start) / 1e3 -
                                    static_cast<double>(response.micros));
        if (fresh) {
          Scope span("serve.close");
          fresh.reset();
        }
        if (entry.expect_error) {
          ok = !response.ok &&
               response.error.find("unknown command") != std::string::npos;
        } else {
          ok = response.ok && mask_core_duration(response.output) == entry.expected;
        }
      } catch (const std::exception&) {
        ok = false;
        try {
          client = std::make_unique<hp::serve::Client>(endpoint);
        } catch (const std::exception&) {
        }
      }
      const std::uint64_t done = now_ns();
      lane.last_done_ns = std::max(lane.last_done_ns, done);
      if (ok) {
        stats.latency_us[i] = static_cast<double>(done - scheduled) / 1e3;
      } else {
        ++lane.failed;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) threads.emplace_back(sender, static_cast<std::size_t>(s));
  for (std::thread& thread : threads) thread.join();

  std::uint64_t last_done = start_ns;
  for (Lane& lane : lanes) {
    stats.transport_us.insert(stats.transport_us.end(), lane.transport_us.begin(),
                              lane.transport_us.end());
    stats.connect_us.insert(stats.connect_us.end(), lane.connect_us.begin(), lane.connect_us.end());
    stats.failed += lane.failed;
    last_done = std::max(last_done, lane.last_done_ns);
  }
  stats.elapsed_s = static_cast<double>(last_done - start_ns) / 1e9;
  return stats;
}

void record_loop_layers(const LoopStats& stats) {
  add_samples("serve.transport_us", stats.transport_us);
  add_samples("serve.connect_us", stats.connect_us);
  add_samples("serve.generator_lag_us", stats.lag_us);
}

// ---------------------------------------------------- in-process layers

namespace {

double g_context_bytes_mb = 0.0;
bool g_have_cold_peel = false;
hp::hyper::PeelStats g_cold_peel;

void check_output(Result& result, const References& refs, const std::string& key,
                  const std::string& output) {
  const auto found = refs.find(key);
  if (found == refs.end()) return;
  result.check(mask_core_duration(output) == found->second,
               "in-process " + key + " output differs from the reference");
}

}  // namespace

void cold_ops_traced(Result& result, const Inputs& inputs, const References& refs) {
  using hp::cli::QuerySession;
  using hp::hyper::Hypergraph;
  struct Op {
    const char* span;
    const char* command;
    bool text;
  };
  const Op ops[] = {{"op.stats_hps", "stats", false},
                    {"op.stats_text", "stats", true},
                    {"op.core", "core", false},
                    {"op.soverlap", "soverlap", false},
                    {"op.cover", "cover", false}};
  for (const Op& spec : ops) {
    Scope op(spec.span);
    std::optional<hp::bio::ComplexDataset> data;
    {
      std::optional<Hypergraph> h;
      if (spec.text) {
        {
          Scope span("io.load_text");
          h.emplace(hp::hyper::load_text(inputs.text));
        }
      } else {
        Scope span("snapshot.open");
        h.emplace(hp::hyper::snapshot::open(inputs.hps));
      }
      {
        Scope span("core.validate");
        hp::hyper::validate(*h);
      }
      Scope span("bench.release");
      h.reset();
    }
    if (spec.text) {
      Scope span("cli.load_dataset.text");
      data.emplace(hp::cli::load_dataset(inputs.text));
    } else {
      Scope span("cli.load_dataset");
      data.emplace(hp::cli::load_dataset(inputs.hps));
    }
    std::unique_ptr<QuerySession> session;
    {
      Scope span("cli.session");
      session = std::make_unique<QuerySession>(std::move(*data));
      data.reset();
    }
    const hp::hyper::AnalysisContext& ctx = session->context;
    const std::string command = spec.command;
    std::vector<std::string> argv{command};
    if (command == "stats") {
      {
        Scope span("context.overlaps");
        ctx.overlaps();
      }
      {
        Scope span("context.components");
        ctx.components();
      }
      Scope span("context.summary");
      ctx.summary();
    } else if (command == "core") {
      {
        Scope span("context.cores");
        ctx.cores();
      }
      g_cold_peel = ctx.core_peel_stats();
      g_have_cold_peel = true;
    } else if (command == "soverlap") {
      {
        Scope span("context.overlaps");
        ctx.overlaps();
      }
      Scope span("core.s_components");
      const hp::index_t s_max = hp::hyper::max_meaningful_s(ctx.overlaps());
      for (hp::index_t s = 1; s <= s_max; ++s) hp::hyper::s_components(ctx.overlaps(), s);
    } else {
      argv = {"cover", "--weights", "deg2"};
      Scope span("core.cover");
      hp::hyper::greedy_vertex_cover(ctx.hypergraph(),
                                     hp::hyper::degree_squared_weights(ctx.hypergraph()));
    }
    std::string output;
    {
      Scope span("cli.run_query");
      output = run_query(*session, argv);
    }
    check_output(result, refs, spec.text ? "stats" : command, output);
    g_context_bytes_mb =
        std::max(g_context_bytes_mb,
                 static_cast<double>(hp::serve::session_charge_bytes(*session)) / 1048576.0);
    Scope span("cli.teardown");
    session.reset();
  }
}

void server_layers(Result& result, hp::serve::Server& server, const std::string& path,
                   const std::string& expected_stats, std::uint64_t seed) {
  // Socket burst: warm stats at a fixed rate, every tenth request on a
  // fresh connection.
  std::vector<MixEntry> mix(1);
  mix[0].command = "stats";
  mix[0].path = path;
  mix[0].expected = expected_stats;
  std::vector<Planned> plan(400);
  for (std::size_t i = 0; i < plan.size(); ++i) plan[i].fresh = (i + seed) % 10 == 0;
  const LoopStats loop = open_loop(server.endpoint(), mix, plan, 2000.0, 2);
  result.tally(loop.sent, loop.failed, "socket stats reply wrong or failed");
  record_loop_layers(loop);

  // In-process pass through each server layer. Odd iterations run with
  // the span recorder off; the wall-time difference is its overhead.
  proto::Request wire;
  wire.command = "stats";
  wire.path = path;
  const std::string frame = proto::format_request(wire);
  Tracer& tracer = Tracer::get();
  const bool was_enabled = tracer.enabled();
  std::vector<double> traced_us, untraced_us;
  const std::vector<std::string> argv{"stats"};
  for (int i = 0; i < 2000; ++i) {
    const bool traced = i % 2 == 0;
    tracer.set_enabled(traced);
    const std::uint64_t start = now_ns();
    bool ok = false;
    {
      Scope op("op.server_inproc");
      proto::Request request;
      {
        Scope span("serve.parse");
        request = proto::parse_request(frame);
      }
      std::optional<hp::serve::ContextPool::Lease> lease;
      {
        Scope span("serve.lease");
        lease.emplace(server.pool().acquire(request.path));
      }
      std::string rendered;
      {
        Scope span("cli.render");
        rendered = run_query(lease->session(), argv);
      }
      {
        Scope span("serve.lease_release");
        lease.reset();
      }
      proto::Response response;
      {
        Scope span("serve.handle");
        response = server.handle(request);
      }
      std::string reply;
      {
        Scope span("serve.format");
        reply = proto::format_response(response);
      }
      ok = response.ok && response.cache == "hit" && response.output == rendered &&
           rendered == expected_stats && !reply.empty();
    }
    (traced ? traced_us : untraced_us)
        .push_back(static_cast<double>(now_ns() - start) / 1e3);
    result.check(ok, "in-process server stats reply wrong");
  }
  tracer.set_enabled(was_enabled);
  const double base = median(untraced_us);
  add_samples("obs.trace_overhead_pct",
              {base > 0.0 ? 100.0 * (median(traced_us) - base) / base : 0.0});
}

// --------------------------------------------------------- mutations

namespace {

void apply_op(hp::hyper::MutableAnalysisContext& ctx, const hp::check::MutationOp& op) {
  using Kind = hp::check::MutationOp::Kind;
  switch (op.kind) {
    case Kind::kAddVertex:
      ctx.graph().add_vertex();
      break;
    case Kind::kRemoveVertex:
      ctx.graph().remove_vertex(op.target);
      break;
    case Kind::kAddEdge:
      ctx.graph().add_hyperedge(op.members);
      break;
    case Kind::kRemoveEdge:
      ctx.graph().remove_hyperedge(op.target);
      break;
  }
}

bool cores_match_cold(hp::hyper::MutableAnalysisContext& ctx, bool inject_fault) {
  const hp::hyper::MutableHypergraph::Snapshot& snap = ctx.graph().snapshot();
  hp::hyper::HyperCoreResult fresh = hp::hyper::core_decomposition(snap.hypergraph);
  if (inject_fault && !fresh.vertex_core.empty()) fresh.vertex_core[0] += 1;
  const hp::hyper::HyperComponents components =
      hp::hyper::connected_components(snap.hypergraph);
  const hp::hyper::HyperComponents& inc_components = ctx.components();
  const hp::hyper::HyperCoreResult& inc = ctx.cores();
  bool ok = inc.vertex_core == fresh.vertex_core && inc.max_core == fresh.max_core &&
            inc.level_vertices == fresh.level_vertices &&
            inc.level_edges == fresh.level_edges &&
            inc_components.count == components.count &&
            inc_components.vertex_label == components.vertex_label;
  for (std::size_t j = 0; ok && j < snap.edge_to_stable.size(); ++j) {
    const hp::index_t stable = snap.edge_to_stable[j];
    ok = inc.edge_core[stable] == fresh.edge_core[j] &&
         inc.in_reduced[stable] == fresh.in_reduced[j];
  }
  return ok;
}

/// Connections `server` holds open: in /proc/net/unix the sockets it
/// accepted carry its listener's path, in the connected state (03).
double live_connections(const hp::serve::Server& server) {
  std::ifstream in("/proc/net/unix");
  std::string line;
  std::getline(in, line);  // header
  int live = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string num, refcount, protocol, flags, type, state, inode, path;
    fields >> num >> refcount >> protocol >> flags >> type >> state >> inode >> path;
    if (state == "03" && path == server.endpoint().path) ++live;
  }
  return live;
}

void publish_peel(Result& result, const hp::hyper::PeelStats& peel) {
  result.set(result.layers, "peel.rounds", static_cast<double>(peel.peel_rounds), "count");
  result.set(result.layers, "peel.frontier_pushes", static_cast<double>(peel.frontier_pushes),
             "count");
  result.set(result.layers, "peel.frontier_waste_ratio",
             peel.frontier_pushes == 0
                 ? 0.0
                 : static_cast<double>(peel.frontier_wasted) /
                       static_cast<double>(peel.frontier_pushes),
             "ratio");
  result.set(result.layers, "peel.containment_probes",
             static_cast<double>(peel.containment_probes), "count");
  result.set(result.layers, "peel.overlap_decrements",
             static_cast<double>(peel.overlap_decrements), "count");
}

}  // namespace

std::unique_ptr<hp::hyper::MutableAnalysisContext> warm_mutable(
    const hp::hyper::Hypergraph& base) {
  auto ctx = std::make_unique<hp::hyper::MutableAnalysisContext>(base);
  ctx->components();
  ctx->cores();
  return ctx;
}

MutateStats mutate_stream(Result& result, hp::hyper::MutableAnalysisContext& ctx,
                          const std::vector<hp::check::MutationOp>& trace,
                          std::uint64_t deadline_ns, bool inject_fault, bool own_peel) {
  const hp::hyper::PeelStats before = ctx.core_peel_stats();

  MutateStats stats;
  std::size_t cursor = 0;
  while (cursor < trace.size() && now_ns() < deadline_ns) {
    const hp::count_t fallbacks = ctx.core_peel_stats().repair_fallbacks;
    const std::uint64_t start = now_ns();
    bool ok = true;
    {
      Scope op("op.batch");
      {
        Scope span("mutate.apply");
        const std::size_t end =
            std::min(trace.size(), cursor + static_cast<std::size_t>(kMutateBatchOps));
        for (; cursor < end; ++cursor) apply_op(ctx, trace[cursor]);
        ctx.apply();
      }
      {
        Scope span("mutate.components");
        ok = ok && ctx.components().count > 0;
      }
      Scope span("mutate.cores");
      ok = ok && ctx.cores().vertex_core.size() == ctx.graph().num_vertices();
    }
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    stats.batch_ms.push_back(ms);
    (ctx.core_peel_stats().repair_fallbacks == fallbacks ? stats.incremental_ms
                                                         : stats.fallback_ms)
        .push_back(ms);
    result.check(ok, "mutation batch read an incoherent state");
  }
  stats.ops = cursor;
  result.check(cores_match_cold(ctx, inject_fault),
               "incremental cores differ from a cold core_decomposition");

  hp::hyper::PeelStats delta = ctx.core_peel_stats();
  const double attempts = static_cast<double>(delta.repairs + delta.repair_fallbacks);
  result.set(result.layers, "mutate.repair_ratio",
             attempts == 0.0 ? 0.0 : static_cast<double>(delta.repairs) / attempts, "ratio");
  result.set(result.layers, "mutate.repaired_vertices",
             static_cast<double>(delta.repaired_vertices), "count");
  if (own_peel) {
    delta.peel_rounds -= before.peel_rounds;
    delta.frontier_pushes -= before.frontier_pushes;
    delta.frontier_wasted -= before.frontier_wasted;
    delta.containment_probes -= before.containment_probes;
    delta.overlap_decrements -= before.overlap_decrements;
    publish_peel(result, delta);
  }
  return stats;
}

void mutate_layers(Result& result, const Inputs& inputs, const Options& options) {
  const hp::hyper::Hypergraph base = hp::hyper::snapshot::open(inputs.hps);
  hp::hyper::validate(base);
  auto ctx = warm_mutable(base);
  hp::check::MutationTraceOptions trace_options;
  trace_options.num_ops = 8 * kMutateBatchOps;
  mutate_stream(result, *ctx, hp::check::generate_trace(base, options.seed, trace_options),
                ~std::uint64_t{0}, options.inject_fault, false);
}

// ------------------------------------------------------------ finish

ObsBaseline obs_baseline() {
  ObsBaseline base;
  base.par_tasks = hp::obs::counter("par.tasks").value();
  base.par_steals = hp::obs::counter("par.steals").value();
  base.par_idle_ns = hp::obs::counter("par.idle_ns").value();
  return base;
}

void finish_layers(Result& result, const Options& options, const ObsBaseline& baseline,
                   hp::serve::Server& server) {
  const std::vector<Span> spans = Tracer::get().collect();
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<std::uint64_t, double> child_ms;  // direct children, by parent id
  for (const Span& s : spans) {
    durations_ms[s.name].push_back(s.dur_ms());
    if (s.parent != 0) child_ms[s.parent] += s.dur_ms();
  }
  // Per operation, the layer spans must account for the wall time: the
  // root's self time is what no layer claims.
  constexpr double kTolerancePct = 5.0;
  constexpr double kToleranceFloorMs = 0.5;
  double op_ms = 0.0, unattributed_ms = 0.0;
  std::size_t ops = 0, over = 0;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    const double self = s.dur_ms() - child_ms[s.id];
    op_ms += s.dur_ms();
    unattributed_ms += self;
    ++ops;
    if (self > std::max(kToleranceFloorMs, s.dur_ms() * kTolerancePct / 100.0)) ++over;
  }
  result.set(result.layers, "trace.unattributed_ms", unattributed_ms, "ms");
  result.set(result.layers, "trace.unattributed_pct",
             op_ms > 0.0 ? 100.0 * unattributed_ms / op_ms : 0.0, "%");
  result.provenance["trace.operations"] = std::to_string(ops);
  result.provenance["trace.tolerance"] =
      "root self time <= max(5% of the operation, 0.5 ms) on >= 99% of operations";
  result.provenance["trace.ops_over_tolerance"] = std::to_string(over);
  if (ops == 0 || static_cast<double>(over) > 0.01 * static_cast<double>(ops)) {
    result.correct = false;
    result.failures.push_back("layer self-times do not add up to operation wall time");
  }

  const auto med = [&](const char* name) { return median(durations_ms[name]); };
  const struct {
    const char* metric;
    const char* span;
    double scale;
    const char* unit;
  } table[] = {
      {"cli.load_dataset_ms", "cli.load_dataset", 1.0, "ms"},
      {"cli.render_ms", "cli.render", 1.0, "ms"},
      {"snapshot.open_ms", "snapshot.open", 1.0, "ms"},
      {"io.load_text_ms", "io.load_text", 1.0, "ms"},
      {"core.validate_ms", "core.validate", 1.0, "ms"},
      {"core.cover_ms", "core.cover", 1.0, "ms"},
      {"core.s_components_ms", "core.s_components", 1.0, "ms"},
      {"context.overlaps_ms", "context.overlaps", 1.0, "ms"},
      {"context.components_ms", "context.components", 1.0, "ms"},
      {"context.summary_ms", "context.summary", 1.0, "ms"},
      {"context.cores_ms", "context.cores", 1.0, "ms"},
      {"serve.parse_us", "serve.parse", 1e3, "us"},
      {"serve.format_us", "serve.format", 1e3, "us"},
      {"serve.handle_us", "serve.handle", 1e3, "us"},
      {"mutate.apply_us", "mutate.apply", 1e3, "us"},
      {"mutate.components_us", "mutate.components", 1e3, "us"},
      {"mutate.cores_us", "mutate.cores", 1e3, "us"},
  };
  for (const auto& row : table) {
    result.set(result.layers, row.metric, med(row.span) * row.scale, row.unit);
  }
  result.set(result.layers, "cli.wrap_ms",
             med("cli.load_dataset") - med("snapshot.open") - med("core.validate"), "ms");
  result.set(result.layers, "serve.lease_us",
             (med("serve.lease") + med("serve.lease_release")) * 1e3, "us");
  {
    std::lock_guard<std::mutex> lock(g_samples_mutex);
    for (const auto& [name, values] : g_samples) {
      result.set(result.layers, name, median(values),
                 name == "obs.trace_overhead_pct" ? "%" : "us");
    }
  }
  result.set(result.layers, "context.bytes_mb", g_context_bytes_mb, "MB");
  if (g_have_cold_peel && result.layers.count("peel.rounds") == 0) {
    publish_peel(result, g_cold_peel);
  }

  result.set(result.layers, "par.tasks",
             static_cast<double>(hp::obs::counter("par.tasks").value() - baseline.par_tasks),
             "count");
  result.set(result.layers, "par.steals",
             static_cast<double>(hp::obs::counter("par.steals").value() - baseline.par_steals),
             "count");
  result.set(result.layers, "par.idle_ms",
             static_cast<double>(hp::obs::counter("par.idle_ns").value() - baseline.par_idle_ns) /
                 1e6,
             "ms");

  const hp::obs::MetricsSnapshot registry = hp::obs::Registry::global().snapshot();
  result.set(result.layers, "obs.metric_count",
             static_cast<double>(registry.counters.size() + registry.gauges.size() +
                                 registry.histograms.size()),
             "count");
  const hp::serve::PoolStats pool = server.pool().stats();
  const double lookups = static_cast<double>(pool.hits + pool.misses);
  result.set(result.layers, "serve.cache_hit_ratio",
             lookups == 0.0 ? 0.0 : static_cast<double>(pool.hits) / lookups, "ratio");
  result.set(result.layers, "serve.threads_live",
             static_cast<double>(proc_status_field("Threads")), "count");
  result.set(result.layers, "serve.vmsize_mb",
             static_cast<double>(proc_status_field("VmSize")) / 1024.0, "MB");
  result.set(result.layers, "serve.connections_gauge",
             hp::obs::gauge("server.connections").value(), "count");
  result.set(result.layers, "serve.connections_live", live_connections(server), "count");

  if (!options.trace_path.empty()) Tracer::get().write_chrome(options.trace_path);
}

}  // namespace perfbench
