// Shared machinery of the end-to-end benchmark: options, the
// benchmark's own span recorder, sample statistics, child processes,
// /proc readings and the result document every workload fills in.
//
// The benchmark reaches the system only through its public functions
// and binaries; every span below is recorded by the benchmark around one
// such call, never inside the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< self-test sizes
  bool inject_fault = false;  ///< corrupt one reference answer
  std::string bin_dir;        ///< holds hyperproteome and hp_trace_check
  std::string work_dir;       ///< scratch inside the checkout
  std::string trace_path;     ///< Chrome trace written by a traced run
};

// ---------------------------------------------------------------- spans

/// One closed span. Ids are process-unique; an operation's root span
/// has parent 0 and lends its id to the whole tree as the trace id.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint32_t tid = 0;
  double dur_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store. Spans go to per-thread vectors and are only
/// merged and written when the run ends.
class Tracer {
 public:
  static Tracer& get();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::vector<Span> collect() const;
  /// Chrome trace-event JSON with args.trace/span/parent on B events,
  /// the format hp_trace_check validates.
  void write_chrome(const std::string& path) const;

 private:
  friend class Scope;
  struct ThreadLog {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> stack;  // open span ids
    std::uint64_t trace = 0;
  };
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<ThreadLog*> logs_;
};

/// RAII span; a no-op (one relaxed load) while tracing is off.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer::ThreadLog* log_ = nullptr;
  Span span_;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Arithmetic mean; 0 if empty, infinite if any sample is.
double mean(const std::vector<double>& values);

// ------------------------------------------------------------- processes

struct ProcessResult {
  int exit_code = -1;
  double wall_s = 0.0;
  long maxrss_kb = 0;
};

/// Spawn argv[0] (a path) with stdout and stderr redirected to files and
/// wait for it. Never leaves a child behind.
ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& stdout_path,
                          const std::string& stderr_path);

std::string read_file(const std::string& path);

/// Fields of /proc/self/status in kB (VmHWM, VmSize, ...) or the
/// Threads count; 0 when unavailable.
long proc_status_field(const char* key);

// ----------------------------------------------------------------- result

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `named` holds the workload's own
/// metrics (cold_core_s, query_p99_us, ...); `uniform` the metrics every
/// workload reports; `layers` the per-layer breakdown of a traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> uniform;
  std::map<std::string, Metric> named;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> provenance;
  std::vector<std::string> failures;  ///< first few mismatch reports

  void check(bool ok, const std::string& what);
  /// Count `n` checked answers of which `bad` were wrong or missing.
  void tally(std::uint64_t n, std::uint64_t bad, const std::string& what);
  /// Record a metric; a non-finite value (a p99 over failed requests,
  /// ...) is left out and fails the run, so it reads as missing.
  void set(std::map<std::string, Metric>& into, const std::string& name,
           double value, const char* unit);
  std::string to_json() const;
};

/// Replace the value of core's "core decomposition in <duration>" line,
/// the only nondeterministic line of any query output.
std::string mask_core_duration(const std::string& output);

/// Peak RSS of this process and of its largest child so far, in MB.
double peak_rss_mb();

/// Record the setup repetitions' median as setup_s (plus the samples).
void report_setup(Result& result, const std::vector<double>& setup_s);

}  // namespace perfbench
