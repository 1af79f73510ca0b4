#include "bio/name_table.hpp"

#include <gtest/gtest.h>

namespace hp::bio {
namespace {

TEST(ProteinRegistry, InternAssignsDenseIds) {
  NameTable r;
  EXPECT_EQ(r.intern("ADH1"), 0u);
  EXPECT_EQ(r.intern("CDC28"), 1u);
  EXPECT_EQ(r.intern("ADH1"), 0u);  // idempotent
  EXPECT_EQ(r.size(), 2u);
}

TEST(ProteinRegistry, LookupBothDirections) {
  NameTable r;
  r.intern("A");
  r.intern("B");
  EXPECT_EQ(r.id_of("B"), 1u);
  EXPECT_EQ(r.name_of(0), "A");
  EXPECT_TRUE(r.contains("A"));
  EXPECT_FALSE(r.contains("C"));
}

TEST(ProteinRegistry, ErrorsOnBadLookups) {
  NameTable r;
  r.intern("A");
  EXPECT_THROW(r.id_of("missing"), InvalidInputError);
  EXPECT_THROW(r.name_of(5), InvalidInputError);
  EXPECT_THROW(r.intern(""), InvalidInputError);
}

TEST(ProteinRegistry, NamesVectorInIdOrder) {
  NameTable r;
  r.intern("x");
  r.intern("y");
  r.intern("z");
  std::vector<std::string> names;
  for (index_t id = 0; id < r.size(); ++id) names.push_back(r.name_of(id));
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y", "z"}));
}

TEST(NameTable, NumberedNamesAreComputed) {
  const NameTable t = NameTable::numbered('v', 12);
  EXPECT_TRUE(t.is_numbered());
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.name_of(0), "v0");
  EXPECT_EQ(t.name_of(11), "v11");
  EXPECT_THROW(t.name_of(12), InvalidInputError);
  for (index_t id = 0; id < t.size(); ++id) {
    EXPECT_EQ(t.id_of(t.name_of(id)), id);
  }
}

TEST(NameTable, NumberedLookupsAcceptOnlyCanonicalDecimal) {
  const NameTable t = NameTable::numbered('v', 13);
  EXPECT_TRUE(t.contains("v12"));
  EXPECT_EQ(t.id_of("v12"), 12u);
  EXPECT_TRUE(t.contains("v0"));
  for (const char* bad :
       {"v012", "v00", "v", "v+1", "v-1", "v13", "", "12", "V1", "f1", " v1",
        "v1 ", "v1x", "v4294967296", "v99999999999999999999"}) {
    EXPECT_FALSE(t.contains(bad)) << bad;
    EXPECT_THROW(t.id_of(bad), InvalidInputError) << bad;
  }
}

TEST(NameTable, NumberedTablesRejectInterning) {
  NameTable t = NameTable::numbered('f', 3);
  EXPECT_THROW(t.intern("f3"), InvalidInputError);
  EXPECT_THROW(NameTable::numbered('\0', 3), InvalidInputError);
}

TEST(NameTable, EmptyNumberedTableNamesNothing) {
  const NameTable t = NameTable::numbered('v', 0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains("v0"));
  EXPECT_THROW(t.name_of(0), InvalidInputError);
}

TEST(NameTable, EqualityComparesNamesAcrossKinds) {
  NameTable spelled;
  for (const char* name : {"v0", "v1", "v2"}) spelled.intern(name);
  EXPECT_EQ(spelled, NameTable::numbered('v', 3));
  EXPECT_NE(spelled, NameTable::numbered('f', 3));
  EXPECT_NE(spelled, NameTable::numbered('v', 4));
  EXPECT_EQ(NameTable::numbered('v', 3), NameTable::numbered('v', 3));
}

TEST(NameTable, ExplicitNamesMayLookNumbered) {
  // A file may carry names of the numbered shape; they are just names.
  NameTable t;
  t.intern("v5");
  t.intern("v012");
  EXPECT_EQ(t.id_of("v012"), 1u);
  EXPECT_FALSE(t.contains("v0"));
}

}  // namespace
}  // namespace hp::bio
