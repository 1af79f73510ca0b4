// cold_1m: a fixed serial script of fresh `hyperproteome` processes on
// the 10^6-protein surrogate, plus server cache misses over the socket.
// Every operation pays load, validate, name synthesis, artifact builds
// and (for core) the peel; `cover` touches only the loader and the
// greedy cover and is the control.
#include <algorithm>
#include <string>
#include <vector>

#include "layers.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;

struct Step {
  const char* metric;  ///< metric of the step's median wall time
  std::vector<std::string> args;
  const char* reference;  ///< key into the references
};

}  // namespace

void run_cold_1m(const Options& options, Result& result) {
  const std::uint64_t proteins = options.tiny ? 10000 : 1000000;
  std::unique_ptr<hp::serve::Server> server;
  Inputs in;
  References refs;
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    stop_server(server);
    const std::uint64_t start = now_ns();
    in = make_inputs(options, "big", proteins, options.seed);
    server = start_server(options);
    hp::serve::Client client{server->endpoint()};
    const hp::serve::proto::Response warm = client.query("stats", in.hps);
    setup_s.push_back(seconds_since(start));
    if (!warm.ok || warm.cache != "miss") throw std::runtime_error("warm-up stats failed");
    refs["stats"] = warm.output;
  }
  report_setup(result, setup_s);
  note_inputs(result, "big", in);

  // References come from the server's warm session: the same query code
  // the one-shot CLI runs, reached through a different path.
  {
    hp::serve::Client client{server->endpoint()};
    refs["core"] = mask_core_duration(client.query("core", in.hps).output);
    refs["soverlap"] = client.query("soverlap", in.hps).output;
    refs["cover"] = client.query("cover", in.hps, {{"weights", "deg2"}}).output;
    client.call([] {
      hp::serve::proto::Request request;
      request.command = "cache_clear";
      return request;
    }());
  }
  if (options.inject_fault) refs["cover"] += "injected fault\n";

  if (options.trace) {
    const ObsBaseline baseline = obs_baseline();
    Tracer::get().set_enabled(true);
    cold_ops_traced(result, in, refs);
    {
      Scope op("op.miss_stats");
      std::unique_ptr<hp::serve::Client> client;
      {
        Scope span("serve.connect");
        client = std::make_unique<hp::serve::Client>(server->endpoint());
      }
      {
        Scope span("serve.cache_clear");
        hp::serve::proto::Request request;
        request.command = "cache_clear";
        client->call(request);
      }
      hp::serve::proto::Response response;
      {
        Scope span("serve.roundtrip");
        response = client->query("stats", in.hps);
      }
      result.check(response.ok && response.cache == "miss" && response.output == refs["stats"],
                   "server miss stats reply wrong");
      Scope span("serve.close");
      client.reset();
    }
    server_layers(result, *server, in.hps, refs["stats"], options.seed);
    mutate_layers(result, in, options);
    Tracer::get().set_enabled(false);
    finish_layers(result, options, baseline, *server);
    stop_server(server);
    return;
  }

  const std::string cli = options.bin_dir + "/hyperproteome";
  const std::vector<Step> steps = {
      {"cold_stats_s", {cli, "stats", in.hps}, "stats"},
      {"cold_text_stats_s", {cli, "stats", in.text}, "stats"},
      {"cold_core_s", {cli, "core", in.hps}, "core"},
      {"cold_soverlap_s", {cli, "soverlap", in.hps}, "soverlap"},
      {"cold_cover_s", {cli, "cover", in.hps, "--weights", "deg2"}, "cover"},
  };
  const std::string out_path = options.work_dir + "/step.out";
  const std::string err_path = options.work_dir + "/step.err";
  std::map<std::string, std::vector<double>> step_s;
  std::vector<double> pass_s;
  std::map<std::string, std::vector<double>> step_rss_mb;
  std::vector<double> server_rss_mb;
  hp::serve::Client client{server->endpoint()};
  const std::uint64_t start = now_ns();
  do {
    double pass = 0.0;
    for (const Step& step : steps) {
      const ProcessResult run = run_process(step.args, out_path, err_path);
      step_s[step.metric].push_back(run.wall_s);
      step_rss_mb[step.metric].push_back(static_cast<double>(run.maxrss_kb) / 1024.0);
      pass += run.wall_s;
      result.check(run.exit_code == 0 &&
                       mask_core_duration(read_file(out_path)) == refs[step.reference],
                   std::string{step.metric} + ": output differs from the reference");
    }
    hp::serve::proto::Request clear;
    clear.command = "cache_clear";
    client.call(clear);
    const std::uint64_t miss_start = now_ns();
    const hp::serve::proto::Response miss = client.query("stats", in.hps);
    const double miss_s = seconds_since(miss_start);
    step_s["miss_stats_s"].push_back(miss_s);
    server_rss_mb.push_back(static_cast<double>(proc_status_field("VmRSS")) / 1024.0);
    pass += miss_s;
    result.check(miss.ok && miss.cache == "miss" && miss.output == refs["stats"],
                 "miss_stats_s: server reply differs from the reference");
    pass_s.push_back(pass);
  } while (seconds_since(start) < options.seconds);

  for (const auto& [metric, samples] : step_s) {
    result.set(result.named, metric, median(samples), "s");
  }
  result.set(result.uniform, "op_mean_ms", mean(pass_s) * 1e3, "ms");
  result.set(result.uniform, "op_tail_ms", *std::max_element(pass_s.begin(), pass_s.end()) * 1e3,
             "ms");
  // The largest cold process, each step by its median over the passes.
  // The server's resident size after a miss load depends on what its
  // allocator kept from earlier loads, so it is reported, not gated.
  double peak_mb = 0.0;
  for (const auto& [metric, samples] : step_rss_mb) peak_mb = std::max(peak_mb, median(samples));
  result.set(result.uniform, "peak_rss_mb", peak_mb, "MB");
  result.provenance["server_rss_after_miss_mb"] = std::to_string(median(server_rss_mb));
  result.provenance["samples"] = std::to_string(pass_s.size()) +
                                 " script passes; each step median over that many runs";
  stop_server(server);
}

}  // namespace perfbench
