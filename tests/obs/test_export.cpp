// Continuous metrics export: interval parsing, Prometheus text
// exposition, JSONL framing, process gauges, and the background
// flusher's ring buffer.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "../temp_dir.hpp"

namespace hp::obs {
namespace {

using std::chrono::milliseconds;

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot s;
  s.counters.push_back({"par.tasks", 42});
  s.gauges.push_back({"process.rss_bytes", 1048576.0});
  HistogramSample h;
  h.name = "context.build_ns";
  h.count = 10;
  h.sum_ns = 5000;
  h.p50_ns = 256;
  h.p90_ns = 512;
  h.p99_ns = 1024;
  h.max_ns = 2048;
  s.histograms.push_back(h);
  return s;
}

TEST(Export, ParsesIntervalSpecs) {
  EXPECT_EQ(parse_metrics_interval("250ms"), milliseconds{250});
  EXPECT_EQ(parse_metrics_interval("2s"), milliseconds{2000});
  EXPECT_EQ(parse_metrics_interval("17"), milliseconds{17});
  EXPECT_EQ(parse_metrics_interval("0.5s"), milliseconds{500});
  EXPECT_EQ(parse_metrics_interval(""), std::nullopt);
  EXPECT_EQ(parse_metrics_interval("soon"), std::nullopt);
  EXPECT_EQ(parse_metrics_interval("-5ms"), std::nullopt);
  EXPECT_EQ(parse_metrics_interval("0"), std::nullopt);
  EXPECT_EQ(parse_metrics_interval("5m"), std::nullopt);  // no minutes
}

TEST(Export, PrometheusExpositionShape) {
  std::ostringstream out;
  write_prometheus(sample_snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE hp_par_tasks counter\nhp_par_tasks 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hp_process_rss_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hp_context_build_ns summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("hp_context_build_ns{quantile=\"0.5\"} 256\n"),
            std::string::npos);
  EXPECT_NE(text.find("hp_context_build_ns{quantile=\"0.99\"} 1024\n"),
            std::string::npos);
  EXPECT_NE(text.find("hp_context_build_ns_sum 5000\n"), std::string::npos);
  EXPECT_NE(text.find("hp_context_build_ns_count 10\n"), std::string::npos);
  // Dots never leak into exposition names.
  EXPECT_EQ(text.find("par.tasks"), std::string::npos);
}

TEST(Export, PrometheusFileReplacesAtomically) {
  const std::string path = hp::test::temp_dir() + "/export_test.prom";
  write_prometheus_file(sample_snapshot(), path);
  write_prometheus_file(sample_snapshot(), path);  // second write: rename over
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("hp_par_tasks 42"), std::string::npos);
  std::remove(path.c_str());
  // No stale temp file left behind.
  EXPECT_FALSE(std::ifstream{path + ".tmp"}.good());
}

TEST(Export, JsonlAppendsOneParseableObjectPerLine) {
  const std::string path = hp::test::temp_dir() + "/export_test.jsonl";
  std::remove(path.c_str());
  TimedSnapshot timed;
  timed.unix_ms = 1700000000000;
  timed.uptime_ns = 123456789;
  timed.snapshot = sample_snapshot();
  append_metrics_jsonl(timed, path);
  timed.uptime_ns += 1000;
  append_metrics_jsonl(timed, path);

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const json::Value root = json::parse(line);
    EXPECT_EQ(root.find("unix_ms")->number, 1700000000000.0);
    const json::Value* counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("par.tasks")->number, 42.0);
    const json::Value* histograms = root.find("histograms");
    ASSERT_NE(histograms, nullptr);
    EXPECT_EQ(histograms->find("context.build_ns")->find("p99_ns")->number,
              1024.0);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(Export, ProcessGaugesPopulate) {
  update_process_gauges();
  // /proc/self/statm exists on every Linux this project targets.
  EXPECT_GT(gauge("process.rss_bytes").value(), 0.0);
  EXPECT_GE(gauge("process.vm_bytes").value(),
            gauge("process.rss_bytes").value());
}

TEST(Export, FlushCallbacksRunOnEveryUpdate) {
  int calls = 0;
  register_flush_callback("test.callback", [&calls] { ++calls; });
  update_process_gauges();
  update_process_gauges();
  EXPECT_EQ(calls, 2);
  // Re-registration replaces, not stacks.
  register_flush_callback("test.callback", [] {});
  update_process_gauges();
  EXPECT_EQ(calls, 2);
}

TEST(Export, BackgroundFlusherFillsRingAndSinks) {
  const std::string jsonl = hp::test::temp_dir() + "/export_bg.jsonl";
  const std::string prom = hp::test::temp_dir() + "/export_bg.prom";
  std::remove(jsonl.c_str());
  std::remove(prom.c_str());

  MetricsExporter exporter;
  ExportOptions options;
  options.interval = milliseconds{20};
  options.jsonl_path = jsonl;
  options.prom_path = prom;
  options.ring_capacity = 4;
  exporter.start(options);
  EXPECT_TRUE(exporter.running());
  std::this_thread::sleep_for(milliseconds{120});
  exporter.stop();  // final flush guarantees at least one snapshot
  EXPECT_FALSE(exporter.running());
  EXPECT_GE(exporter.flush_count(), 1u);

  const std::vector<TimedSnapshot> ring = exporter.ring();
  ASSERT_FALSE(ring.empty());
  EXPECT_LE(ring.size(), 4u);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].uptime_ns, ring[i - 1].uptime_ns);  // oldest first
  }

  std::ifstream prom_in{prom};
  ASSERT_TRUE(prom_in.good());
  std::ostringstream prom_text;
  prom_text << prom_in.rdbuf();
  EXPECT_NE(prom_text.str().find("# TYPE"), std::string::npos);

  std::ifstream jsonl_in{jsonl};
  ASSERT_TRUE(jsonl_in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl_in, line)) {
    ++lines;
    json::parse(line);  // throws on malformed framing
  }
  EXPECT_EQ(lines, exporter.flush_count());

  std::remove(jsonl.c_str());
  std::remove(prom.c_str());
}

TEST(Export, RingWrapsKeepingNewest) {
  MetricsExporter exporter;
  ExportOptions options;
  options.interval = milliseconds{60000};  // timer never fires in-test
  options.ring_capacity = 3;
  exporter.start(options);
  for (int i = 0; i < 7; ++i) exporter.flush_now();
  exporter.stop();
  const std::vector<TimedSnapshot> ring = exporter.ring();
  ASSERT_EQ(ring.size(), 3u);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].uptime_ns, ring[i - 1].uptime_ns);
  }
  EXPECT_GE(exporter.flush_count(), 8u);  // 7 manual + final
}

}  // namespace
}  // namespace hp::obs
