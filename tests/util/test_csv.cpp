#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/common.hpp"
#include "../temp_dir.hpp"

namespace hp {
namespace {

TEST(CsvWriter, PlainFields) {
  CsvWriter w;
  w.add_row({"a", "b", "c"});
  EXPECT_EQ(w.buffer(), "a,b,c\n");
}

TEST(CsvWriter, EscapesSpecials) {
  CsvWriter w;
  w.add_row({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(w.buffer(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvRoundTrip, PreservesFields) {
  CsvWriter w;
  w.add_row({"x", "1,2", "q\"q"});
  w.add_row({"", "plain", ""});
  const auto rows = parse_csv(w.buffer());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x", "1,2", "q\"q"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "plain", ""}));
}

TEST(ParseCsv, HandlesCrlfAndFinalLineWithoutNewline) {
  const auto rows = parse_csv("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, EmptyInput) { EXPECT_TRUE(parse_csv("").empty()); }

TEST(ParseCsv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("\"abc"), ParseError);
}

TEST(CsvWriter, SaveWritesFile) {
  CsvWriter w;
  w.add_row({"k", "v"});
  const std::string path = hp::test::temp_dir() + "/hp_csv_test.csv";
  w.save(path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "k,v");
  std::remove(path.c_str());
}

TEST(CsvWriter, SaveToBadPathThrows) {
  CsvWriter w;
  w.add_row({"x"});
  EXPECT_THROW(w.save("/nonexistent_dir_hp/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace hp
