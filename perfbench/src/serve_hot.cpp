// serve_hot: open-loop traffic over the Unix socket against a resident
// working set (the calibrated 1,361-protein instance and a 20k
// surrogate), so every pooled query is a cache hit after warm-up. The
// time goes to transport, protocol, connection threads and the pool
// hand-off, not to compute. A fixed share of requests opens a fresh
// connection and a small share sends unknown command names.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 9;
constexpr double kFixedRate = 8000.0;  ///< requests/s of the latency phase
constexpr double kP99LimitUs = 3000.0; ///< latency limit of the ladder
constexpr double kLadderStep = 1.08;   ///< rung i offers kFixedRate*1.08^i
constexpr int kLadderRungs = 22;       ///< top rung: 43k requests/s
constexpr std::size_t kLadderRounds = 5;
/// Requests per segment. Each segment opens its own connections, so the
/// connection threads land on new CPUs; percentiles are medians over
/// segments, which one stall or one unlucky placement cannot move.
constexpr std::size_t kSegment = 1000;
constexpr std::size_t kFreshEvery = 10;  ///< every tenth request reconnects

struct Weighted {
  MixEntry entry;
  unsigned weight;
};

std::vector<Weighted> traffic_mix(const Inputs& cal, const Inputs& s20k) {
  const auto query = [](const char* command, const std::string& path,
                        std::vector<std::pair<std::string, std::string>> args, unsigned weight) {
    Weighted w;
    w.entry.command = command;
    w.entry.path = path;
    w.entry.args = std::move(args);
    w.weight = weight;
    return w;
  };
  std::vector<Weighted> mix = {
      query("stats", s20k.hps, {}, 20),
      query("stats", cal.text, {}, 10),
      query("core", s20k.hps, {{"k", "2"}}, 8),
      query("core", s20k.hps, {{"k", "3"}}, 8),
      query("core", s20k.hps, {{"k", "4"}}, 8),
      query("core", cal.text, {{"k", "1"}}, 5),
      query("core", cal.text, {{"k", "2"}}, 5),
      query("core", cal.text, {{"k", "3"}}, 5),
      query("match", cal.text, {}, 12),
      query("cover", cal.text, {}, 8),
      query("cover", cal.text, {{"weights", "deg2"}}, 6),
  };
  return mix;
}

/// The seeded request sequence. Unknown commands get names of their own
/// (appended to the mix), so each is a name the server has never seen.
std::vector<Planned> make_plan(std::vector<MixEntry>& mix, const std::vector<unsigned>& weights,
                               std::size_t count, std::uint64_t seed) {
  constexpr unsigned kUnknownPerMille = 30;
  unsigned total = 0;
  for (const unsigned w : weights) total += w;
  hp::Rng rng{seed};
  std::vector<Planned> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan[i].fresh = i % kFreshEvery == kFreshEvery - 1;
    if (rng.uniform(1000) < kUnknownPerMille) {
      MixEntry bogus;
      bogus.command = "nosuch-" + std::to_string(rng.uniform(1u << 30));
      bogus.expect_error = true;
      plan[i].entry = mix.size();
      mix.push_back(std::move(bogus));
      continue;
    }
    std::uint64_t pick = rng.uniform(total);
    std::size_t e = 0;
    while (pick >= weights[e]) pick -= weights[e++];
    plan[i].entry = e;
  }
  return plan;
}

struct Segments {
  std::size_t sent = 0;
  std::size_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<double> mean_us, p50_us, p90_us, p99_us, late_lag_us;  ///< one per segment

  void add(const Segments& other) {
    sent += other.sent;
    failed += other.failed;
    elapsed_s += other.elapsed_s;
    mean_us.insert(mean_us.end(), other.mean_us.begin(), other.mean_us.end());
    p50_us.insert(p50_us.end(), other.p50_us.begin(), other.p50_us.end());
    p99_us.insert(p99_us.end(), other.p99_us.begin(), other.p99_us.end());
    p90_us.insert(p90_us.end(), other.p90_us.begin(), other.p90_us.end());
    late_lag_us.insert(late_lag_us.end(), other.late_lag_us.begin(), other.late_lag_us.end());
  }
};

/// Sender connections: four, or fewer on a host with fewer hardware
/// threads.
int senders() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Run `plan` in consecutive segments of kSegment requests, each an
/// open loop on fresh connections.
Segments run_segments(const hp::serve::Endpoint& endpoint, const std::vector<MixEntry>& mix,
                      const std::vector<Planned>& plan, double rate) {
  Segments out;
  for (std::size_t first = 0; first < plan.size(); first += kSegment) {
    const std::vector<Planned> part(
        plan.begin() + static_cast<std::ptrdiff_t>(first),
        plan.begin() + static_cast<std::ptrdiff_t>(std::min(plan.size(), first + kSegment)));
    const LoopStats run = open_loop(endpoint, mix, part, rate, senders());
    out.sent += run.sent;
    out.failed += run.failed;
    out.elapsed_s += run.elapsed_s;
    out.mean_us.push_back(mean(run.latency_us));
    out.p50_us.push_back(quantile(run.latency_us, 0.5));
    out.p99_us.push_back(quantile(run.latency_us, 0.99));
    out.p90_us.push_back(quantile(run.latency_us, 0.90));
    out.late_lag_us.push_back(median(std::vector<double>(
        run.lag_us.begin() + static_cast<std::ptrdiff_t>(run.lag_us.size() * 3 / 4),
        run.lag_us.end())));
  }
  return out;
}

}  // namespace

void run_serve_hot(const Options& options, Result& result) {
  const std::uint64_t proteins = options.tiny ? 2000 : 20000;
  std::unique_ptr<hp::serve::Server> server;
  Inputs cal, s20k;
  std::vector<Weighted> weighted;
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    stop_server(server);
    const std::uint64_t start = now_ns();
    cal = make_inputs(options, "cal", 0, options.seed);
    s20k = make_inputs(options, "s20k", proteins, options.seed);
    server = start_server(options);
    weighted = traffic_mix(cal, s20k);
    hp::serve::Client client{server->endpoint()};
    for (const Weighted& w : weighted) {
      if (!client.query(w.entry.command, w.entry.path, w.entry.args).ok) {
        throw std::runtime_error("warm-up " + w.entry.command + " failed");
      }
    }
    setup_s.push_back(seconds_since(start));
  }
  report_setup(result, setup_s);
  note_inputs(result, "calibrated", cal);
  note_inputs(result, "surrogate_20k", s20k);

  // Expected replies: the one-shot CLI output for the same command.
  std::vector<MixEntry> mix;
  std::vector<unsigned> weights;
  for (Weighted& w : weighted) {
    std::vector<std::string> argv{w.entry.command, w.entry.path};
    for (const auto& [key, value] : w.entry.args) argv.push_back("--" + key + "=" + value);
    w.entry.expected = mask_core_duration(one_shot(argv));
    mix.push_back(w.entry);
    weights.push_back(w.weight);
  }
  if (options.inject_fault) mix[0].expected += "injected fault\n";

  const double rate = kFixedRate;
  const double fixed_share = options.trace ? 0.4 : 0.3;
  const std::size_t fixed_count = std::max<std::size_t>(
      kSegment, static_cast<std::size_t>(rate * options.seconds * fixed_share) / kSegment * kSegment);
  const std::vector<Planned> fixed_plan = make_plan(mix, weights, fixed_count, options.seed);
  result.provenance["offered_rps"] = std::to_string(rate);

  if (options.trace) {
    const ObsBaseline baseline = obs_baseline();
    Tracer::get().set_enabled(true);
    const LoopStats loop = open_loop(server->endpoint(), mix, fixed_plan, rate, senders());
    result.tally(loop.sent, loop.failed, "serve_hot reply wrong or failed");
    record_loop_layers(loop);
    // The layers this traffic skips, on the same resident 20k instance.
    server_layers(result, *server, s20k.hps, mix[0].expected, options.seed);
    cold_ops_traced(result, s20k, {{"stats", mix[0].expected}});
    mutate_layers(result, s20k, options);
    Tracer::get().set_enabled(false);
    finish_layers(result, options, baseline, *server);
    stop_server(server);
    return;
  }

  // The fixed-rate phase and kLadderRounds rounds of the SLO ladder
  // alternate, so a stall of the host lasting seconds hits one round of
  // a rung or part of the fixed phase, never all of it.
  std::size_t ladder_requests = 0;
  std::map<int, Segments> rungs;
  Segments& fixed = rungs[0];
  const std::size_t fixed_part = fixed_plan.size() / (kLadderRounds - 1);
  for (std::size_t round = 0; round < kLadderRounds; ++round) {
    if (round > 0) {
      const auto first = fixed_plan.begin() + static_cast<std::ptrdiff_t>((round - 1) * fixed_part);
      const auto last = round + 1 == kLadderRounds ? fixed_plan.end()
                                                   : first + static_cast<std::ptrdiff_t>(fixed_part);
      fixed.add(run_segments(server->endpoint(), mix, std::vector<Planned>(first, last), rate));
    }
    for (int rung = 1; rung <= kLadderRungs; ++rung) {
      const double offered = rate * std::pow(kLadderStep, rung);
      const std::vector<Planned> plan =
          make_plan(mix, weights, kSegment,
                    options.seed * 1000003u + static_cast<std::uint64_t>(rung * 16) + round);
      const Segments run = run_segments(server->endpoint(), mix, plan, offered);
      result.tally(run.sent, run.failed, "serve_hot ladder reply wrong or failed");
      ladder_requests += run.sent;
      rungs[rung].add(run);
    }
  }
  result.tally(fixed.sent, fixed.failed, "serve_hot reply wrong or failed");

  // The mean, p50, p90 and p99 are medians over segments of each
  // segment's figure. The p99 moves with every stall of a shared host;
  // the p90 is the tail that stays put, so it is the one reported as
  // op_tail_ms.
  const double mean_us = median(fixed.mean_us);
  const double p90_us = median(fixed.p90_us);
  result.set(result.named, "query_mean_us", mean_us, "us");
  result.set(result.named, "query_p50_us", median(fixed.p50_us), "us");
  result.set(result.named, "query_p90_us", p90_us, "us");
  result.set(result.named, "query_p99_us", median(fixed.p99_us), "us");
  result.set(result.uniform, "op_mean_ms", mean_us / 1e3, "ms");
  result.set(result.uniform, "op_tail_ms", p90_us / 1e3, "ms");

  // slo_rps: the highest rung whose p99 (failures counted as misses)
  // meets the limit with no growing backlog (the last quarter of the
  // sends is not late by more than the limit), each rung judged by its
  // median over its kLadderRounds segments.
  const auto passes = [&](const Segments& run) {
    return median(run.p99_us) <= kP99LimitUs && median(run.late_lag_us) <= kP99LimitUs;
  };
  int best = -1;
  std::string ladder_log;
  for (const auto& [rung, run] : rungs) {
    if (passes(run)) best = rung;
    ladder_log += std::to_string(static_cast<long>(rate * std::pow(kLadderStep, rung))) +
                  (passes(run) ? ":pass(p99 " : ":fail(p99 ") +
                  std::to_string(static_cast<long>(median(run.p99_us))) + " us) ";
  }
  const double slo_rps =
      best < 0 ? 0.0
               : static_cast<double>(rungs.at(best).sent - rungs.at(best).failed) /
                     rungs.at(best).elapsed_s;
  result.set(result.named, "slo_rps", slo_rps, "1/s");
  result.provenance["samples"] =
      std::to_string(fixed.sent) + " requests at the fixed rate in " +
      std::to_string(fixed.p50_us.size()) + " segments of " + std::to_string(kSegment) +
      " (percentiles are medians over segments; 10 samples beyond each segment's p99); " +
      std::to_string(ladder_requests) + " ladder requests";
  result.provenance["ladder"] = ladder_log;
  result.provenance["p99_limit_us"] = std::to_string(kP99LimitUs);
  stop_server(server);
}

}  // namespace perfbench
