#include "mm/matrix_market.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "../temp_dir.hpp"

namespace hp::mm {
namespace {

constexpr const char* kGeneral =
    "%%MatrixMarket matrix coordinate real general\n"
    "% a comment\n"
    "3 4 5\n"
    "1 1 1.5\n"
    "1 2 -2.0\n"
    "2 3 3.25\n"
    "3 1 0.5\n"
    "3 4 1.0\n";

TEST(MatrixMarket, ParsesGeneralReal) {
  const CooMatrix m = parse_matrix_market(kGeneral);
  EXPECT_EQ(m.num_rows, 3u);
  EXPECT_EQ(m.num_cols, 4u);
  EXPECT_EQ(m.nnz_stored(), 5u);
  EXPECT_EQ(m.field, Field::kReal);
  EXPECT_EQ(m.symmetry, Symmetry::kGeneral);
  EXPECT_EQ(m.entries[0].row, 0u);  // converted to 0-based
  EXPECT_EQ(m.entries[0].col, 0u);
  EXPECT_DOUBLE_EQ(m.entries[1].value, -2.0);
  EXPECT_EQ(m.nnz_expanded(), 5u);
}

TEST(MatrixMarket, ParsesPatternSymmetric) {
  const CooMatrix m = parse_matrix_market(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n"
      "1 1\n"
      "2 1\n"
      "3 2\n");
  EXPECT_EQ(m.field, Field::kPattern);
  EXPECT_EQ(m.symmetry, Symmetry::kSymmetric);
  EXPECT_EQ(m.nnz_stored(), 3u);
  // One diagonal + two off-diagonal entries.
  EXPECT_EQ(m.nnz_expanded(), 5u);
}

TEST(MatrixMarket, BannerIsCaseInsensitive) {
  const CooMatrix m = parse_matrix_market(
      "%%matrixmarket MATRIX Coordinate REAL General\n"
      "1 1 1\n"
      "1 1 2.0\n");
  EXPECT_EQ(m.num_rows, 1u);
}

TEST(MatrixMarket, RejectsMalformed) {
  EXPECT_THROW(parse_matrix_market(""), ParseError);
  EXPECT_THROW(parse_matrix_market("%%MatrixMarket matrix array real general\n"),
               ParseError);
  EXPECT_THROW(parse_matrix_market(
                   "%%MatrixMarket matrix coordinate complex general\n"
                   "1 1 1\n1 1 1 1\n"),
               ParseError);
  // Out-of-range index.
  EXPECT_THROW(parse_matrix_market(
                   "%%MatrixMarket matrix coordinate real general\n"
                   "2 2 1\n3 1 1.0\n"),
               ParseError);
  // Entry count mismatch.
  EXPECT_THROW(parse_matrix_market(
                   "%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n"),
               ParseError);
  // Upper-triangular entry in symmetric storage.
  EXPECT_THROW(parse_matrix_market(
                   "%%MatrixMarket matrix coordinate real symmetric\n"
                   "2 2 1\n1 2 1.0\n"),
               ParseError);
  // Pattern entry with a value.
  EXPECT_THROW(parse_matrix_market(
                   "%%MatrixMarket matrix coordinate pattern general\n"
                   "2 2 1\n1 2 9\n"),
               ParseError);
}

TEST(MatrixMarket, RoundTripGeneral) {
  const CooMatrix m = parse_matrix_market(kGeneral);
  const CooMatrix back = parse_matrix_market(format_matrix_market(m));
  EXPECT_EQ(back.num_rows, m.num_rows);
  EXPECT_EQ(back.nnz_stored(), m.nnz_stored());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].row, m.entries[i].row);
    EXPECT_EQ(back.entries[i].col, m.entries[i].col);
    EXPECT_DOUBLE_EQ(back.entries[i].value, m.entries[i].value);
  }
}

TEST(MatrixMarket, RoundTripPattern) {
  CooMatrix m;
  m.num_rows = 2;
  m.num_cols = 3;
  m.field = Field::kPattern;
  m.entries = {{0, 0, 1.0}, {1, 2, 1.0}};
  const CooMatrix back = parse_matrix_market(format_matrix_market(m));
  EXPECT_EQ(back.field, Field::kPattern);
  EXPECT_EQ(back.nnz_stored(), 2u);
}

TEST(MatrixMarket, FileRoundTrip) {
  const CooMatrix m = parse_matrix_market(kGeneral);
  const std::string path = hp::test::temp_dir() + "/hp_mm_test.mtx";
  save_matrix_market(m, path);
  const CooMatrix back = load_matrix_market(path);
  EXPECT_EQ(back.nnz_stored(), m.nnz_stored());
  std::remove(path.c_str());
  EXPECT_THROW(load_matrix_market("/no/such/file.mtx"), std::runtime_error);
}

}  // namespace
}  // namespace hp::mm
