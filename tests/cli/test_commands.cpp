#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/hypergraph_io.hpp"
#include "../temp_dir.hpp"

namespace hp::cli {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v;
  v.push_back("hp_cli");
  v.insert(v.end(), argv);
  return Args{static_cast<int>(v.size()), v.data()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = hp::test::temp_dir();
    // One file per test: ctest runs tests as parallel processes, and a
    // shared name would let one test's TearDown delete another's input.
    const char* test = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    table_path_ = dir_ + "/cli_complexes_" + test + ".tsv";
    std::ofstream out(table_path_);
    out << "Arp23\tARP2\tARP3\tARC15\n"
        << "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
        << "ADA\tGCN5\tADA2\n";
  }
  void TearDown() override { std::remove(table_path_.c_str()); }

  std::string dir_;
  std::string table_path_;
};

TEST_F(CliTest, LoadDatasetComplexTable) {
  const bio::ComplexDataset d = load_dataset(table_path_);
  EXPECT_EQ(d.hypergraph.num_edges(), 3u);
  EXPECT_TRUE(d.proteins.contains("GCN5"));
}

TEST_F(CliTest, LoadDatasetRejectsUnknownExtension) {
  EXPECT_THROW(load_dataset("foo.xyz"), InvalidInputError);
}

TEST_F(CliTest, StatsCommand) {
  std::ostringstream out;
  const int rc = cmd_stats(make_args({"stats", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("|V| (vertices)"), std::string::npos);
  EXPECT_NE(out.str().find("6"), std::string::npos);  // 6 distinct proteins
}

TEST_F(CliTest, StatsAndReportOnSingleDegreeDataset) {
  // One complex: every protein has degree 1, so no power law can be
  // fitted. The summary is still valid and the command succeeds.
  const std::string path = dir_ + "/cli_single_degree.tsv";
  {
    std::ofstream out(path);
    out << "A\tP1\tP2\n";
  }
  std::ostringstream stats;
  EXPECT_EQ(cmd_stats(make_args({"stats", path.c_str()}), stats), 0);
  EXPECT_NE(stats.str().find("degree power-law exponent : n/a (fewer than "
                             "two distinct degrees)\n"),
            std::string::npos)
      << stats.str();
  std::ostringstream report;
  EXPECT_EQ(cmd_report(make_args({"report", path.c_str()}), report), 0);
  EXPECT_NE(report.str().find("n/a"), std::string::npos) << report.str();
  std::remove(path.c_str());
}

TEST_F(CliTest, CoreCommandListsLadderAndNames) {
  std::ostringstream out;
  const int rc = cmd_core(make_args({"core", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("k-core ladder"), std::string::npos);
  EXPECT_NE(out.str().find("GCN5"), std::string::npos);
}

TEST_F(CliTest, CoreCommandWritesExtractedCore) {
  const std::string core_path = dir_ + "/cli_core_out.hyper";
  std::ostringstream out;
  const int rc = cmd_core(
      make_args({"core", table_path_.c_str(), "--k", "1", "--out",
                 core_path.c_str()}),
      out);
  EXPECT_EQ(rc, 0);
  const hyper::Hypergraph core = hyper::load_text(core_path);
  EXPECT_GT(core.num_edges(), 0u);
  std::remove(core_path.c_str());
}

TEST_F(CliTest, CoverCommandVariants) {
  std::ostringstream unit_out, deg2_out, multi_out;
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str()}), unit_out),
            0);
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str(), "--weights",
                                 "deg2"}),
                      deg2_out),
            0);
  EXPECT_EQ(cmd_cover(make_args({"cover", table_path_.c_str(),
                                 "--multicover", "2"}),
                      multi_out),
            0);
  EXPECT_NE(unit_out.str().find("cover:"), std::string::npos);
  EXPECT_NE(multi_out.str().find("cover:"), std::string::npos);
}

TEST_F(CliTest, CoverRejectsBadWeights) {
  std::ostringstream out;
  EXPECT_THROW(cmd_cover(make_args({"cover", table_path_.c_str(),
                                    "--weights", "banana"}),
                         out),
               InvalidInputError);
}

TEST_F(CliTest, ConvertTsvToHgrAndBack) {
  const std::string hgr = dir_ + "/cli_conv.hgr";
  const std::string hyper = dir_ + "/cli_conv.hyper";
  std::ostringstream out;
  EXPECT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hgr.c_str()}),
                out),
            0);
  EXPECT_EQ(cmd_convert(make_args({"convert", hgr.c_str(), hyper.c_str()}),
                        out),
            0);
  const bio::ComplexDataset original = load_dataset(table_path_);
  const bio::ComplexDataset converted = load_dataset(hyper);
  EXPECT_EQ(converted.hypergraph.num_pins(),
            original.hypergraph.num_pins());
  std::remove(hgr.c_str());
  std::remove(hyper.c_str());
}

TEST_F(CliTest, ConvertToMtxIsRejected) {
  std::ostringstream out;
  const bio::ComplexDataset d = load_dataset(table_path_);
  EXPECT_THROW(save_dataset(d, dir_ + "/x.mtx"), InvalidInputError);
}

TEST_F(CliTest, GenerateWritesSurrogate) {
  const std::string path = dir_ + "/cli_gen.tsv";
  std::ostringstream out;
  const int rc =
      cmd_generate(make_args({"generate", path.c_str(), "--seed", "7"}), out);
  EXPECT_EQ(rc, 0);
  const bio::ComplexDataset d = load_dataset(path);
  EXPECT_EQ(d.hypergraph.num_vertices(), 1361u);
  EXPECT_EQ(d.hypergraph.num_edges(), 232u);
  std::remove(path.c_str());
}

TEST_F(CliTest, PajekWritesNetAndClu) {
  const std::string prefix = dir_ + "/cli_fig3";
  std::ostringstream out;
  const int rc = cmd_pajek(
      make_args({"pajek", table_path_.c_str(), prefix.c_str()}), out);
  EXPECT_EQ(rc, 0);
  std::ifstream net(prefix + ".net");
  std::ifstream clu(prefix + ".clu");
  EXPECT_TRUE(net.good());
  EXPECT_TRUE(clu.good());
  std::string first;
  std::getline(net, first);
  EXPECT_NE(first.find("*Vertices"), std::string::npos);
  std::remove((prefix + ".net").c_str());
  std::remove((prefix + ".clu").c_str());
}

TEST_F(CliTest, MatchCommand) {
  std::ostringstream out;
  const int rc = cmd_match(make_args({"match", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("maximal matching:"), std::string::npos);
  // Arp23 is disjoint from the GCN5 family: matching size >= 2.
  EXPECT_NE(out.str().find("Arp23"), std::string::npos);
}

TEST_F(CliTest, SoverlapCommand) {
  std::ostringstream out;
  const int rc =
      cmd_soverlap(make_args({"soverlap", table_path_.c_str()}), out);
  EXPECT_EQ(rc, 0);
  // SAGA and ADA share {GCN5, ADA2}: max meaningful s is 2.
  EXPECT_NE(out.str().find("max meaningful s: 2"), std::string::npos);
}

TEST_F(CliTest, SoverlapAndDelta2GoldenOnCalibratedSurrogate) {
  // The calibrated surrogate (default seed): the whole s-overlap census
  // and the summary's Delta_2,F line, pinned byte for byte.
  const std::string path = dir_ + "/cli_soverlap_golden.tsv";
  std::ostringstream generated;
  ASSERT_EQ(cmd_generate(make_args({"generate", path.c_str()}), generated),
            0);
  std::ostringstream soverlap;
  EXPECT_EQ(cmd_soverlap(make_args({"soverlap", path.c_str()}), soverlap), 0);
  EXPECT_EQ(soverlap.str(),
            "max meaningful s: 22\n"
            " s  components  largest  edges\n"
            " 1  15  218  2738\n"
            " 2  71  162  680\n"
            " 3  141  89  228\n"
            " 4  180  16  142\n"
            " 5  192  13  99\n"
            " 6  204  12  66\n"
            " 7  206  11  56\n"
            " 8  212  9  45\n"
            " 9  213  9  41\n"
            " 10  216  9  33\n"
            " 11  219  9  22\n"
            " 12  220  8  18\n"
            " 13  222  7  16\n"
            " 14  225  4  10\n"
            " 15  226  4  9\n"
            " 16  228  3  5\n"
            " 17  228  3  5\n"
            " 18  228  3  5\n"
            " 19  228  3  5\n"
            " 20  230  3  2\n"
            " 21  231  2  1\n"
            " 22  231  2  1\n");
  std::ostringstream stats;
  EXPECT_EQ(cmd_stats(make_args({"stats", path.c_str()}), stats), 0);
  EXPECT_NE(stats.str().find("\nDelta_2,F (max degree-2)  : 74\n"),
            std::string::npos)
      << stats.str();
  std::remove(path.c_str());
}

TEST_F(CliTest, SmallworldCommand) {
  std::ostringstream out;
  const int rc = cmd_smallworld(
      make_args({"smallworld", table_path_.c_str(), "--seed", "3"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("observed:"), std::string::npos);
  EXPECT_NE(out.str().find("null model:"), std::string::npos);
}

TEST_F(CliTest, ConvertThroughBinary) {
  // `convert` writes the binary snapshot by extension, like every format.
  const std::string hps = dir_ + "/cli_conv.hps";
  std::ostringstream out;
  EXPECT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hps.c_str()}),
                out),
            0);
  const bio::ComplexDataset back = load_dataset(hps);
  EXPECT_EQ(back.hypergraph.num_edges(), 3u);
  std::remove(hps.c_str());
}

TEST_F(CliTest, SnapshotConvertInfoVerify) {
  const std::string hps = dir_ + "/cli_snap.hps";
  std::ostringstream out;
  EXPECT_EQ(cmd_snapshot(
                make_args({"snapshot", "convert", table_path_.c_str(),
                           hps.c_str()}),
                out),
            0);
  EXPECT_NE(out.str().find("3 hyperedges"), std::string::npos) << out.str();

  std::ostringstream info_out;
  EXPECT_EQ(cmd_snapshot(make_args({"snapshot", "info", hps.c_str()}),
                         info_out),
            0);
  EXPECT_NE(info_out.str().find("hyperedges     : 3"), std::string::npos);

  std::ostringstream verify_out;
  EXPECT_EQ(cmd_snapshot(make_args({"snapshot", "verify", hps.c_str()}),
                         verify_out),
            0);
  EXPECT_NE(verify_out.str().find("snapshot ok"), std::string::npos);
  std::remove(hps.c_str());
}

TEST_F(CliTest, SnapshotStatsMatchesTextPath) {
  // The acceptance contract: analysis over a .hps must print exactly
  // what the same analysis over the text formats prints.
  const std::string hyper = dir_ + "/cli_snap_ref.hyper";
  const std::string hps = dir_ + "/cli_snap_ref.hps";
  std::ostringstream conv;
  ASSERT_EQ(cmd_convert(
                make_args({"convert", table_path_.c_str(), hyper.c_str()}),
                conv),
            0);
  ASSERT_EQ(cmd_snapshot(
                make_args({"snapshot", "convert", hyper.c_str(), hps.c_str()}),
                conv),
            0);
  std::ostringstream from_text, from_snapshot;
  ASSERT_EQ(cmd_stats(make_args({"stats", hyper.c_str()}), from_text), 0);
  ASSERT_EQ(cmd_stats(make_args({"stats", hps.c_str()}), from_snapshot), 0);
  EXPECT_EQ(from_text.str(), from_snapshot.str());
  std::remove(hyper.c_str());
  std::remove(hps.c_str());
}

TEST_F(CliTest, SnapshotRejectsBadSubcommandAndCodec) {
  std::ostringstream out;
  EXPECT_THROW(cmd_snapshot(make_args({"snapshot", "frob", "x.hps"}), out),
               InvalidInputError);
  // Raw is the only snapshot encoding and .hpb is gone; each refusal
  // says how to get a readable file instead.
  const std::string hpb = dir_ + "/cli_retired.hpb";
  const std::string hps = dir_ + "/cli_retired.hps";
  const auto expect_refused = [](const auto& run_command) {
    try {
      run_command();
      ADD_FAILURE() << "expected InvalidInputError";
    } catch (const InvalidInputError& error) {
      EXPECT_NE(std::string{error.what()}.find("snapshot convert"),
                std::string::npos)
          << error.what();
    }
  };
  for (const char* codec : {"varint", "nop", "lzma"}) {
    expect_refused([&] {
      cmd_snapshot(make_args({"snapshot", "convert", table_path_.c_str(),
                              hps.c_str(), "--codec", codec}),
                   out);
    });
  }
  expect_refused([&] { load_dataset(hpb); });
  expect_refused([&] {
    cmd_convert(make_args({"convert", table_path_.c_str(), hpb.c_str()}),
                out);
  });
  std::ifstream written{hps};
  EXPECT_FALSE(written.good()) << "a refused convert still wrote " << hps;
}

TEST_F(CliTest, ReportCommand) {
  std::ostringstream out;
  const int rc = cmd_report(
      make_args({"report", table_path_.c_str(), "--no-paper"}), out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.str().find("maximum core k"), std::string::npos);
  EXPECT_NE(out.str().find("2-multicover size"), std::string::npos);
}

TEST_F(CliTest, RenderWritesSvg) {
  const std::string path = dir_ + "/cli_fig3.svg";
  std::ostringstream out;
  const int rc = cmd_render(
      make_args({"render", table_path_.c_str(), path.c_str(),
                 "--iterations", "10"}),
      out);
  EXPECT_EQ(rc, 0);
  std::ifstream svg(path);
  std::string first;
  ASSERT_TRUE(std::getline(svg, first));
  EXPECT_NE(first.find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliTest, RunDispatchesAndHandlesErrors) {
  std::ostringstream out;
  EXPECT_EQ(run(make_args({}), out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);

  std::ostringstream out2;
  EXPECT_EQ(run(make_args({"frobnicate"}), out2), 2);
  EXPECT_NE(out2.str().find("unknown command"), std::string::npos);

  std::ostringstream out3;
  EXPECT_EQ(run(make_args({"stats", "/no/such/file.tsv"}), out3), 1);
  EXPECT_NE(out3.str().find("error:"), std::string::npos);

  std::ostringstream out4;
  EXPECT_EQ(run(make_args({"stats", table_path_.c_str()}), out4), 0);
}

}  // namespace
}  // namespace hp::cli
