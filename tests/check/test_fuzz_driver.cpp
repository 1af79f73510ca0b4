// End-to-end tests of the hp_fuzz driver library: sweeps are clean and
// deterministic, reproducers round-trip through the text loader, and
// the checked-in corpus (tests/corpus/) replays green. The corpus
// replay is the regression guarantee ISSUE'd for every bug the fuzzer
// finds: its shrunk witness lands in tests/corpus/ and this test runs
// it forever after.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/hypergraph_io.hpp"
#include "../temp_dir.hpp"

#ifndef HP_TEST_CORPUS_DIR
#error "HP_TEST_CORPUS_DIR must point at tests/corpus"
#endif

namespace hp::check {
namespace {

namespace fs = std::filesystem;
using hyper::Hypergraph;
using hyper::HypergraphBuilder;

TEST(FuzzDriver, SmallSweepIsClean) {
  FuzzConfig config;
  config.seed_begin = 0;
  config.seed_end = 40;
  config.mutation_trials = 2;
  const FuzzSummary summary = run_fuzz(config);
  EXPECT_EQ(summary.cases, 40);
  EXPECT_EQ(summary.oracle_checks, 40);
  EXPECT_EQ(summary.mutation_trials, 40 * 2 * 4);  // 4 formats
  for (const auto& f : summary.failures) {
    for (const auto& c : f.checks) {
      ADD_FAILURE() << "seed " << f.seed << " " << c.oracle << ": "
                    << c.detail;
    }
  }
}

TEST(FuzzDriver, SweepIsDeterministic) {
  FuzzConfig config;
  config.seed_begin = 100;
  config.seed_end = 130;
  const FuzzSummary a = run_fuzz(config);
  const FuzzSummary b = run_fuzz(config);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.mutation_trials, b.mutation_trials);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(FuzzDriver, ReproducerRoundTripsThroughTextLoader) {
  HypergraphBuilder b{4};
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  const Hypergraph h = b.build();

  const std::string dir =
      (fs::path(hp::test::temp_dir()) / "hp_fuzz_corpus").string();
  const std::string path = write_reproducer(
      dir, 77, h, {{"core_agreement", "synthetic failure for the test"}});

  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::path(path).extension(), ".hyper");

  // Provenance comments must parse as comments, and the instance must
  // survive the round-trip.
  const Hypergraph loaded = hyper::load_text(path);
  EXPECT_TRUE(same_structure(h, loaded));

  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line.rfind("# ", 0), 0u);
  fs::remove_all(dir);
}

TEST(FuzzDriver, ReplayEmptyDirectoryIsCleanNoop) {
  const FuzzSummary summary = replay_corpus(
      (fs::path(hp::test::temp_dir()) / "no_such_corpus_dir").string());
  EXPECT_EQ(summary.cases, 0);
  EXPECT_TRUE(summary.ok());
}

TEST(FuzzDriver, CheckedInCorpusReplaysGreen) {
  const FuzzSummary summary = replay_corpus(HP_TEST_CORPUS_DIR);
  EXPECT_GT(summary.cases, 0) << "corpus directory missing or empty: "
                              << HP_TEST_CORPUS_DIR;
  for (const auto& f : summary.failures) {
    for (const auto& c : f.checks) {
      ADD_FAILURE() << f.source << " " << c.oracle << ": " << c.detail;
    }
  }
}

TEST(FuzzDriver, ReplayFlagsUnparsableCorpusFile) {
  const std::string dir =
      (fs::path(hp::test::temp_dir()) / "hp_fuzz_bad_corpus").string();
  fs::create_directories(dir);
  {
    std::ofstream out(fs::path(dir) / "broken.hyper");
    out << "%hypergraph not a header\n";
  }
  const FuzzSummary summary = replay_corpus(dir);
  EXPECT_EQ(summary.cases, 1);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures[0].checks.at(0).oracle, "corpus_load");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hp::check
