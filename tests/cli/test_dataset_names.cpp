// Names of datasets loaded from the nameless formats: ids are named by
// the numbered scheme ("v<i>" / "f<i>", bio/name_table.hpp), computed on
// demand, and everything that prints them stays byte-identical to the
// names a spelled-out table would give.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "cli/commands.hpp"
#include "cli/query.hpp"
#include "core/pajek.hpp"
#include "core/snapshot/snapshot.hpp"
#include "par/thread_pool.hpp"
#include "../temp_dir.hpp"

namespace hp::cli {
namespace {

Args make_args(const std::vector<std::string>& argv) {
  std::vector<const char*> raw{"hp_cli"};
  for (const std::string& a : argv) raw.push_back(a.c_str());
  return Args{static_cast<int>(raw.size()), raw.data()};
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The dataset a nameless file held before names became numbered: every
/// name spelled out in an explicit table, in id order.
bio::ComplexDataset spelled_out(const hyper::Hypergraph& h) {
  const auto spelled = [](char prefix, index_t id) {
    std::string name(1, prefix);
    name += std::to_string(id);
    return name;
  };
  bio::ComplexDataset data;
  for (index_t v = 0; v < h.num_vertices(); ++v) {
    data.proteins.intern(spelled('v', v));
  }
  for (index_t e = 0; e < h.num_edges(); ++e) {
    data.complex_names.intern(spelled('f', e));
  }
  data.hypergraph = h;
  return data;
}

class DatasetNames : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = hp::test::temp_dir();
    // 13 vertices (so "v12" exists and "v13" does not), vertex 12
    // isolated, 4 edges.
    hyper::HypergraphBuilder b{13};
    b.add_edge({0, 1, 2});
    b.add_edge({2, 3, 4, 5});
    b.add_edge({5, 6, 7, 8, 9});
    b.add_edge({0, 9, 10, 11});
    graph_ = b.build();
  }

  /// Expect the numbered scheme on both sides of `data`.
  static void expect_numbered(const bio::ComplexDataset& data, index_t nv,
                              index_t ne) {
    ASSERT_EQ(data.proteins.size(), nv);
    ASSERT_EQ(data.complex_names.size(), ne);
    EXPECT_TRUE(data.proteins.is_numbered());
    EXPECT_TRUE(data.complex_names.is_numbered());
    const std::string last_v = "v" + std::to_string(nv - 1);
    const std::string last_f = "f" + std::to_string(ne - 1);
    EXPECT_EQ(data.proteins.name_of(0), "v0");
    EXPECT_EQ(data.proteins.name_of(nv - 1), last_v);
    EXPECT_EQ(data.proteins.id_of(last_v), nv - 1);
    EXPECT_TRUE(data.proteins.contains("v0"));
    EXPECT_EQ(data.complex_names.name_of(0), "f0");
    EXPECT_EQ(data.complex_names.name_of(ne - 1), last_f);
    EXPECT_EQ(data.complex_names.id_of(last_f), ne - 1);
    const std::string past_v = "v" + std::to_string(nv);
    const std::string past_f = "f" + std::to_string(ne);
    for (const std::string& bad :
         {std::string{"v01"}, std::string{"v"}, std::string{"v+1"},
          std::string{"v-1"}, past_v, std::string{"f0"}}) {
      EXPECT_FALSE(data.proteins.contains(bad)) << bad;
      EXPECT_THROW(data.proteins.id_of(bad), InvalidInputError) << bad;
    }
    for (const std::string& bad :
         {std::string{"f01"}, std::string{"f"}, std::string{"f+1"},
          std::string{"f-1"}, past_f, std::string{"v0"}}) {
      EXPECT_FALSE(data.complex_names.contains(bad)) << bad;
      EXPECT_THROW(data.complex_names.id_of(bad), InvalidInputError) << bad;
    }
  }

  std::string dir_;
  hyper::Hypergraph graph_;
};

TEST_F(DatasetNames, NumberedForHyperHgrAndSnapshot) {
  for (const char* ext : {"hyper", "hgr", "hps"}) {
    SCOPED_TRACE(ext);
    const std::string path = dir_ + "/dataset_names." + ext;
    bio::ComplexDataset data;
    data.hypergraph = graph_;
    save_dataset(data, path);
    const bio::ComplexDataset loaded = load_dataset(path);
    expect_numbered(loaded, 13, 4);
    EXPECT_EQ(loaded.proteins.id_of("v12"), 12u);
    std::remove(path.c_str());
  }
}

TEST_F(DatasetNames, NumberedForMatrixMarket) {
  // Row-net model: columns are vertices, non-empty rows are edges.
  const std::string path = dir_ + "/dataset_names.mtx";
  {
    std::ofstream out{path};
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "3 13 5\n"
        << "1 1\n1 2\n2 2\n2 13\n3 5\n";
  }
  const bio::ComplexDataset loaded = load_dataset(path);
  expect_numbered(loaded, 13, 3);
  std::remove(path.c_str());
}

TEST_F(DatasetNames, CommandsPrintNumberedNames) {
  const std::string path = dir_ + "/dataset_names_cmd.hps";
  bio::ComplexDataset data;
  data.hypergraph = graph_;
  save_dataset(data, path);
  std::ostringstream match;
  ASSERT_EQ(cmd_match(make_args({"match", path}), match), 0);
  EXPECT_NE(match.str().find(" f0"), std::string::npos) << match.str();
  std::ostringstream cover;
  ASSERT_EQ(cmd_cover(make_args({"cover", path}), cover), 0);
  EXPECT_NE(cover.str().find(" v"), std::string::npos) << cover.str();
  std::remove(path.c_str());
}

TEST_F(DatasetNames, ConvertToTableMatchesSpelledOutNames) {
  // The calibrated surrogate as a snapshot: `convert x.hps x.tsv` must
  // write exactly the table the spelled-out names give.
  const bio::ComplexDataset surrogate = bio::cellzome_surrogate();
  const std::string hps = dir_ + "/dataset_names_cal.hps";
  const std::string tsv = dir_ + "/dataset_names_cal.tsv";
  hyper::snapshot::save(surrogate.hypergraph, hps);
  std::ostringstream out;
  ASSERT_EQ(cmd_convert(make_args({"convert", hps, tsv}), out), 0);
  EXPECT_EQ(read_file(tsv),
            bio::format_complex_table(spelled_out(surrogate.hypergraph)));
  std::remove(hps.c_str());
  std::remove(tsv.c_str());
}

TEST_F(DatasetNames, PajekMatchesSpelledOutNames) {
  const bio::ComplexDataset surrogate = bio::cellzome_surrogate();
  const std::string hps = dir_ + "/dataset_names_pajek.hps";
  const std::string prefix = dir_ + "/dataset_names_pajek";
  hyper::snapshot::save(surrogate.hypergraph, hps);
  std::ostringstream out;
  ASSERT_EQ(cmd_pajek(make_args({"pajek", hps, prefix}), out), 0);
  const bio::ComplexDataset spelled = spelled_out(surrogate.hypergraph);
  std::vector<std::string> vertex_labels, edge_labels;
  for (index_t v = 0; v < spelled.proteins.size(); ++v) {
    vertex_labels.push_back(spelled.proteins.name_of(v));
  }
  for (index_t e = 0; e < spelled.complex_names.size(); ++e) {
    edge_labels.push_back(spelled.complex_names.name_of(e));
  }
  EXPECT_EQ(read_file(prefix + ".net"),
            hyper::to_pajek_bipartite(surrogate.hypergraph, vertex_labels,
                                      edge_labels));
  for (const std::string& p : {hps, prefix + ".net", prefix + ".clu"}) {
    std::remove(p.c_str());
  }
}

TEST_F(DatasetNames, ConcurrentReadsFromPoolLanes) {
  // Server pool lanes share one session: name lookups and queries from
  // many lanes at once must agree with a serial run.
  const std::string path = dir_ + "/dataset_names_par.hps";
  hyper::snapshot::save(bio::cellzome_surrogate().hypergraph, path);
  QuerySession session{load_dataset(path)};
  std::ostringstream serial;
  ASSERT_EQ(run_query(session, "core", make_args({"core", "--limit=1000"}),
                      serial),
            0);
  const std::string expected_core =
      serial.str().substr(serial.str().find("k-core ladder"));

  const index_t nv = session.data.proteins.size();
  std::atomic<int> mismatches{0};
  par::parallel_for(0, nv, 64, [&](index_t b, index_t e, int) {
    for (index_t v = b; v < e; ++v) {
      const std::string name = session.data.proteins.name_of(v);
      if (session.data.proteins.id_of(name) != v) ++mismatches;
    }
    const std::string edge = "f" + std::to_string(b % 232);
    if (session.data.complex_names.name_of(b % 232) != edge) ++mismatches;
    std::ostringstream out;
    run_query(session, "core", make_args({"core", "--limit=1000"}), out);
    if (out.str().substr(out.str().find("k-core ladder")) != expected_core) {
      ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hp::cli
