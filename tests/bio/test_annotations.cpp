#include "bio/annotations.hpp"

#include <gtest/gtest.h>

namespace hp::bio {
namespace {

TEST(SimulateAnnotations, SizesAndDeterminism) {
  Rng a{5}, b{5};
  const AnnotationSet x = simulate_annotations(100, {1, 2, 3}, {}, a);
  const AnnotationSet y = simulate_annotations(100, {1, 2, 3}, {}, b);
  EXPECT_EQ(x.size(), 100u);
  EXPECT_EQ(x.essential, y.essential);
  EXPECT_EQ(x.homolog, y.homolog);
  EXPECT_EQ(x.known, y.known);
}

TEST(SimulateAnnotations, CoreRatesAreElevated) {
  Rng rng{7};
  std::vector<index_t> core;
  for (index_t v = 0; v < 400; ++v) core.push_back(v);  // half the proteome
  const AnnotationSet a = simulate_annotations(800, core, {}, rng);
  index_t core_essential = 0, bg_essential = 0;
  for (index_t v = 0; v < 400; ++v) core_essential += a.essential[v] ? 1 : 0;
  for (index_t v = 400; v < 800; ++v) bg_essential += a.essential[v] ? 1 : 0;
  // Core essential rate ~ (32/41)*(22/32) = 0.54 vs background ~ 0.15.
  EXPECT_GT(core_essential, 2 * bg_essential);
}

TEST(SimulateAnnotations, BackgroundRatesMatchCygd) {
  Rng rng{11};
  const AnnotationSet a = simulate_annotations(20000, {}, {}, rng);
  index_t essential = 0;
  for (index_t v = 0; v < a.size(); ++v) essential += a.essential[v] ? 1 : 0;
  // P(essential) = P(known) * P(essential | known) = 0.70 * (878/4036).
  const double expected = 0.70 * 878.0 / 4036.0;
  EXPECT_NEAR(essential / 20000.0, expected, 0.02);
}

TEST(SimulateAnnotations, RejectsOutOfRangeCoreIds) {
  Rng rng{1};
  EXPECT_THROW(simulate_annotations(10, {10}, {}, rng), InvalidInputError);
}

TEST(AnnotationsIo, RoundTrip) {
  NameTable reg;
  reg.intern("A");
  reg.intern("B");
  reg.intern("C");
  AnnotationSet a;
  a.essential = {true, false, true};
  a.homolog = {false, true, true};
  a.known = {true, true, false};
  const AnnotationSet back = parse_annotations(format_annotations(a, reg), reg);
  EXPECT_EQ(back.essential, a.essential);
  EXPECT_EQ(back.homolog, a.homolog);
  EXPECT_EQ(back.known, a.known);
}

TEST(AnnotationsIo, UnknownProteinsSkipped) {
  NameTable reg;
  reg.intern("A");
  const AnnotationSet a = parse_annotations(
      "A essential homolog known\nZZZ essential homolog known\n", reg);
  EXPECT_TRUE(a.essential[0]);
}

TEST(AnnotationsIo, RejectsMalformedLines) {
  NameTable reg;
  reg.intern("A");
  EXPECT_THROW(parse_annotations("A essential\n", reg), ParseError);
  EXPECT_THROW(parse_annotations("A maybe homolog known\n", reg), ParseError);
  EXPECT_THROW(parse_annotations("A essential what known\n", reg),
               ParseError);
  EXPECT_THROW(parse_annotations("A essential homolog maybe\n", reg),
               ParseError);
}

}  // namespace
}  // namespace hp::bio
