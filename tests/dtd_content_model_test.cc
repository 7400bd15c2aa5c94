#include "dtd/content_model.h"

#include <gtest/gtest.h>

namespace xmlproj {
namespace {

// Builds (a, (b | c)*, d?) over names a=0 b=1 c=2 d=3.
ContentModel SampleModel() {
  ContentModel m;
  int32_t a = m.Name(0);
  int32_t bc = m.Star(m.Choice({m.Name(1), m.Name(2)}));
  int32_t d = m.Opt(m.Name(3));
  m.set_root(m.Seq({a, bc, d}));
  return m;
}

TEST(ContentModel, CollectNames) {
  ContentModel m = SampleModel();
  NameSet names = m.CollectNames(4, nullptr);
  EXPECT_EQ(NameSet::Of(4, {0, 1, 2, 3}), names);
}

TEST(ContentModel, ToString) {
  ContentModel m = SampleModel();
  std::vector<std::string> names = {"a", "b", "c", "d"};
  EXPECT_EQ("(a, (b | c)*, d?)", m.ToString(names));
}

TEST(ContentMatcher, MatchesSequences) {
  ContentModel m = SampleModel();
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 1, 2, 1}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 3}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 2, 3}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{1}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 3, 1}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 3, 3}));
}

TEST(ContentMatcher, EmptyModelAcceptsOnlyEmpty) {
  ContentModel m;  // EMPTY content
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0}));
}

TEST(ContentMatcher, PlusRequiresOne) {
  ContentModel m;
  m.set_root(m.Plus(m.Name(0)));
  ContentMatcher matcher(m);
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 0, 0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 1}));
}

TEST(ContentMatcher, NestedGroups) {
  // ((a, b) | c)+
  ContentModel m;
  int32_t ab = m.Seq({m.Name(0), m.Name(1)});
  m.set_root(m.Plus(m.Choice({ab, m.Name(2)})));
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 1}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{2, 0, 1, 2}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 1, 0}));
}

TEST(ContentMatcher, AnyAcceptsEverything) {
  ContentModel m;
  m.set_root(m.Any());
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{4, 0, 2, 2}));
}

// XML 1.0 asks for deterministic content models, but a DTD may still
// declare (a?, a): both a's can take the first child. Such models load,
// and match the language their regular expression denotes.
TEST(ContentMatcher, NonDeterministicOptionalBeforeRequired) {
  ContentModel m;  // (a?, a)
  m.set_root(m.Seq({m.Opt(m.Name(0)), m.Name(0)}));
  ContentMatcher matcher(m);
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 0, 0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{1}));
}

TEST(ContentMatcher, NonDeterministicSharedPrefix) {
  ContentModel m;  // ((a, b) | (a, c))
  m.set_root(m.Choice({m.Seq({m.Name(0), m.Name(1)}),
                       m.Seq({m.Name(0), m.Name(2)})}));
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 1}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0, 2}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 1, 2}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{1}));
  // The walk the streaming validator takes: one state per step, and a
  // dead state as soon as no continuation can match.
  ContentMatcher::MatchState state = ContentMatcher::kStart;
  state = matcher.Advance(state, 0);
  EXPECT_NE(ContentMatcher::kDead, state);
  EXPECT_FALSE(matcher.Accepts(state));
  EXPECT_EQ(ContentMatcher::kDead, matcher.Advance(state, 0));
  state = matcher.Advance(state, 2);
  EXPECT_TRUE(matcher.Accepts(state));
  state = matcher.Advance(state, 1);
  EXPECT_EQ(ContentMatcher::kDead, state);
  EXPECT_EQ(ContentMatcher::kDead, matcher.Advance(state, 1));
  EXPECT_FALSE(matcher.Accepts(state));
}

TEST(ContentMatcher, AnyAroundNames) {
  ContentModel m;  // (ANY, a): any sequence that ends in a
  m.set_root(m.Seq({m.Any(), m.Name(0)}));
  ContentMatcher matcher(m);
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{0}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{3, 0, 0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{0, 3}));
}

TEST(ContentMatcher, MixedContent) {
  ContentModel m;  // (#PCDATA | a)* with the text name 1
  m.set_root(m.Star(m.Choice({m.Name(1), m.Name(0)})));
  ContentMatcher matcher(m);
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{}));
  EXPECT_TRUE(matcher.Matches(std::vector<NameId>{1, 0, 1, 0, 0}));
  EXPECT_FALSE(matcher.Matches(std::vector<NameId>{1, 2}));
}

TEST(ContentModel, StarGuardedness) {
  // (a, (b | c)*, d?) is *-guarded: the only union is starred.
  EXPECT_TRUE(SampleModel().IsStarGuarded());

  // (a | b) is not.
  ContentModel m1;
  m1.set_root(m1.Choice({m1.Name(0), m1.Name(1)}));
  EXPECT_FALSE(m1.IsStarGuarded());

  // ((a | b)+, c) is *-guarded ("+ counts as a guard").
  ContentModel m2;
  m2.set_root(
      m2.Seq({m2.Plus(m2.Choice({m2.Name(0), m2.Name(1)})), m2.Name(2)}));
  EXPECT_TRUE(m2.IsStarGuarded());

  // (a, (b | c)?) is not: the union is under '?', not '*'.
  ContentModel m3;
  m3.set_root(
      m3.Seq({m3.Name(0), m3.Opt(m3.Choice({m3.Name(1), m3.Name(2)}))}));
  EXPECT_FALSE(m3.IsStarGuarded());

  // EMPTY is trivially *-guarded.
  ContentModel m4;
  EXPECT_TRUE(m4.IsStarGuarded());
}

TEST(ContentModel, ContainsAny) {
  ContentModel m;
  m.set_root(m.Seq({m.Name(0), m.Any()}));
  EXPECT_TRUE(m.ContainsAny());
  EXPECT_FALSE(SampleModel().ContainsAny());
}

}  // namespace
}  // namespace xmlproj
