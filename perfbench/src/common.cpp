#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

// ---------------------------------------------------------------- spans

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::local() {
  // Logs live until process exit so collect() may run after the
  // recording threads have been joined.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    log = new ThreadLog;
    std::lock_guard<std::mutex> lock(mutex_);
    log->tid = static_cast<std::uint32_t>(logs_.size() + 1);
    logs_.push_back(log);
  }
  return *log;
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const ThreadLog* log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

void Tracer::write_chrome(const std::string& path) const {
  std::vector<Span> spans = collect();
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const Span& s : spans) epoch = std::min(epoch, s.start_ns);
  // Per thread, spans nest properly; emit them in start order (parents
  // before same-start children) and close every span that ended before
  // the next one opens, so timestamps never decrease within a thread.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buffer[320];
  const auto emit_end = [&](const Span& s) {
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                  "\"tid\":%u}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.end_ns - epoch) / 1e3, s.tid);
    out << buffer;
    first = false;
  };
  std::vector<const Span*> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!open.empty() &&
           (open.back()->tid != s.tid || open.back()->end_ns <= s.start_ns)) {
      emit_end(*open.back());
      open.pop_back();
    }
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"trace\":%llu,\"span\":%llu,"
                  "\"parent\":%llu}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - epoch) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.trace),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << buffer;
    first = false;
    open.push_back(&s);
  }
  while (!open.empty()) {
    emit_end(*open.back());
    open.pop_back();
  }
  out << "\n]}\n";
}

Scope::Scope(const char* name) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  log_ = &tracer.local();
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.tid = log_->tid;
  if (log_->stack.empty()) {
    span_.parent = 0;
    span_.trace = span_.id;
    log_->trace = span_.id;
  } else {
    span_.parent = log_->stack.back();
    span_.trace = log_->trace;
  }
  log_->stack.push_back(span_.id);
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  log_->stack.pop_back();
  log_->spans.push_back(span_);
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------- processes

ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& stdout_path,
                          const std::string& stderr_path) {
  std::vector<char*> raw;
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ProcessResult result;
  const std::uint64_t start = now_ns();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, raw[0], &actions, nullptr, raw.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  result.wall_s = seconds_since(start);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  result.maxrss_kb = usage.ru_maxrss;
  return result;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_length = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_length, key) == 0 && line.size() > key_length &&
        line[key_length] == ':') {
      return std::strtol(line.c_str() + key_length + 1, nullptr, 10);
    }
  }
  return 0;
}

// ----------------------------------------------------------------- result

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::set(std::map<std::string, Metric>& into, const std::string& name, double value,
                 const char* unit) {
  if (std::isfinite(value)) {
    into[name] = Metric{value, unit};
    return;
  }
  correct = false;
  failures.push_back("metric " + name + " is not finite");
}

void Result::tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad != 0 && failures.size() < 8) {
    failures.push_back(what + " (" + std::to_string(bad) + " of " + std::to_string(n) + ")");
  }
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  char buffer[64];
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buffer, sizeof buffer, "%.17g", metric.value);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + buffer +
           ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct && failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"uniform\": " + json_metrics(uniform);
  out += ", \"named\": " + json_metrics(named);
  out += ", \"layers\": " + json_metrics(layers);
  out += ", \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(failures[i]);
  }
  return out + "]}";
}

std::string mask_core_duration(const std::string& output) {
  static const std::string kPrefix = "core decomposition in ";
  if (output.compare(0, kPrefix.size(), kPrefix) != 0) return output;
  const std::size_t eol = output.find('\n');
  return kPrefix + "<duration>" +
         (eol == std::string::npos ? std::string{} : output.substr(eol));
}

double peak_rss_mb() {
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  const long self_kb = proc_status_field("VmHWM");
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

void report_setup(Result& result, const std::vector<double>& setup_s) {
  result.set(result.uniform, "setup_s", median(setup_s), "s");
  result.set(result.named, "setup_s", median(setup_s), "s");
  std::string samples;
  char buffer[32];
  for (const double s : setup_s) {
    std::snprintf(buffer, sizeof buffer, "%s%.4f", samples.empty() ? "" : " ", s);
    samples += buffer;
  }
  result.provenance["setup_samples_s"] = samples;
}

}  // namespace perfbench
