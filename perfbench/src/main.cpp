// hp_perfbench: one run of one workload of the end-to-end benchmark.
//
//   hp_perfbench --workload cold_1m|serve_hot|mutate_stream --seed N
//                --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//                [--trace-out trace.json] [--tiny] [--inject-fault]
//
// Prints one JSON document (the last stdout line) with the run's checked
// answer counts, its metrics and their provenance; perfbench/run.py
// builds this binary and turns the document into the benchmark result.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

#include "par/thread_pool.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<hp::serve::Server> start_server(const Options& options) {
  hp::serve::ServerOptions server_options;
  server_options.endpoint = hp::serve::parse_endpoint("unix:" + options.work_dir + "/hp.sock");
  auto server = std::make_unique<hp::serve::Server>(std::move(server_options));
  server->start();
  return server;
}

void stop_server(std::unique_ptr<hp::serve::Server>& server) {
  if (!server) return;
  server->request_stop();
  server->wait();
  server.reset();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const hp::Args args{argc, argv};
    Options options;
    options.workload = args.get("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.tiny = args.get_bool("tiny", false);
    options.inject_fault = args.get_bool("inject-fault", false);
    options.bin_dir = args.get("bin-dir", "");
    options.work_dir = args.get("work-dir", ".bench_run");
    options.trace_path = args.get("trace-out", "");
    if (options.bin_dir.empty()) throw std::runtime_error("--bin-dir is required");
    std::filesystem::create_directories(options.work_dir);

    Result result;
    if (options.workload == "cold_1m") {
      run_cold_1m(options, result);
    } else if (options.workload == "serve_hot") {
      run_serve_hot(options, result);
    } else if (options.workload == "mutate_stream") {
      run_mutate_stream(options, result);
    } else {
      throw std::runtime_error("unknown --workload '" + options.workload + "'");
    }
    if (result.uniform.count("peak_rss_mb") == 0) {
      result.set(result.uniform, "peak_rss_mb", peak_rss_mb(), "MB");
    }
    result.named["peak_rss_mb"] = result.uniform["peak_rss_mb"];
    const char* threads = std::getenv("HP_THREADS");
    result.provenance["nproc"] = std::to_string(std::thread::hardware_concurrency());
    result.provenance["HP_THREADS"] = threads != nullptr ? threads : "unset";
    result.provenance["pool_lanes"] = std::to_string(hp::par::ThreadPool::global().thread_count());
    result.provenance["seed"] = std::to_string(options.seed);
    result.provenance["workload"] = options.workload;
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "hp_perfbench: " << error.what() << '\n';
    return 1;
  }
}
