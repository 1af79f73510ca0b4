// Deterministic fuzz tests for every parser: random garbage and
// mutations of valid files must either parse or throw hp::ParseError /
// hp::InvalidInputError -- never crash, hang, or throw anything else.
#include <gtest/gtest.h>

#include <string>

#include "bio/annotations.hpp"
#include "bio/complex_io.hpp"
#include "core/binary_io.hpp"
#include "core/hypergraph_io.hpp"
#include "mm/matrix_market.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

std::string random_ascii(Rng& rng, std::size_t length) {
  static const char alphabet[] =
      " \t\n0123456789abcxyz%#.-\"\\,|VF%%MatrixMarket";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out += alphabet[rng.pick(sizeof(alphabet) - 1)];
  }
  return out;
}

std::string mutate(Rng& rng, std::string text, int edits) {
  for (int i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t pos = rng.pick(text.size());
    switch (rng.uniform(3)) {
      case 0:
        text[pos] = static_cast<char>(32 + rng.uniform(95));
        break;
      case 1:
        text.erase(pos, 1);
        break;
      default:
        text.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
    }
  }
  return text;
}

template <typename Parser>
void fuzz(Parser&& parse, const std::string& valid, std::uint64_t seed) {
  Rng rng{seed};
  // Pure garbage.
  for (int trial = 0; trial < 60; ++trial) {
    const std::string input = random_ascii(rng, 1 + rng.pick(200));
    try {
      parse(input);
    } catch (const ParseError&) {
    } catch (const InvalidInputError&) {
    }
    // Any other exception type (or a crash) fails the test harness.
  }
  // Mutations of a valid input.
  for (int trial = 0; trial < 60; ++trial) {
    const std::string input = mutate(rng, valid, 1 + static_cast<int>(rng.uniform(6)));
    try {
      parse(input);
    } catch (const ParseError&) {
    } catch (const InvalidInputError&) {
    }
  }
  SUCCEED();
}

TEST(FuzzParsers, HypergraphText) {
  const std::string valid = "%hypergraph 4 2\n0 1 2\n2 3\n";
  fuzz([](const std::string& s) { hyper::from_text(s); }, valid, 11);
}

TEST(FuzzParsers, Hmetis) {
  const std::string valid = "2 4\n1 2 3\n3 4\n";
  fuzz([](const std::string& s) { hyper::from_hmetis(s); }, valid, 13);
}

TEST(FuzzParsers, MatrixMarket) {
  const std::string valid =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n1 2 1.5\n3 1 -2.0\n";
  fuzz([](const std::string& s) { mm::parse_matrix_market(s); }, valid, 17);
}

TEST(FuzzParsers, ComplexTable) {
  const std::string valid = "C1\tP1\tP2\nC2\tP2\tP3\n";
  fuzz([](const std::string& s) { bio::parse_complex_table(s); }, valid, 19);
}

TEST(FuzzParsers, Annotations) {
  bio::NameTable reg;
  reg.intern("P1");
  reg.intern("P2");
  const std::string valid =
      "P1 essential homolog known\nP2 nonessential nohomolog unknown\n";
  fuzz([&reg](const std::string& s) { bio::parse_annotations(s, reg); },
       valid, 23);
}

TEST(FuzzParsers, Csv) {
  const std::string valid = "a,b,\"c,d\"\n1,2,3\n";
  fuzz([](const std::string& s) { parse_csv(s); }, valid, 29);
}

TEST(FuzzParsers, BinaryHypergraph) {
  hyper::HypergraphBuilder b{5};
  b.add_edge({0, 1, 2});
  b.add_edge({3, 4});
  const std::string valid = hyper::to_binary(b.build());
  Rng rng{31};
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = valid;
    // Byte-level mutations.
    const int edits = 1 + static_cast<int>(rng.uniform(8));
    for (int i = 0; i < edits && !input.empty(); ++i) {
      const std::size_t pos = rng.pick(input.size());
      switch (rng.uniform(3)) {
        case 0:
          input[pos] = static_cast<char>(rng.uniform(256));
          break;
        case 1:
          input.erase(pos, 1 + rng.pick(3));
          break;
        default:
          input.insert(pos, 1, static_cast<char>(rng.uniform(256)));
      }
    }
    try {
      hyper::from_binary(input);
    } catch (const ParseError&) {
    } catch (const InvalidInputError&) {
    }
  }
  SUCCEED();
}

TEST(FuzzParsers, ValidInputsStillParseAfterNoopMutation) {
  // Control: the unmutated valid inputs parse (the fuzz harness would
  // hide a regression otherwise).
  EXPECT_NO_THROW(hyper::from_text("%hypergraph 4 2\n0 1 2\n2 3\n"));
  EXPECT_NO_THROW(hyper::from_hmetis("2 4\n1 2 3\n3 4\n"));
  EXPECT_NO_THROW(bio::parse_complex_table("C1\tP1\tP2\n"));
}

}  // namespace
}  // namespace hp
