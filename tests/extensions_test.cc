// Tests for the extension modules (FD serialization) and for the
// brute-force UCC oracle, testing::BruteForceUccs, that HyUCC is checked
// against.

#include "fd/io.h"

#include "core/hyfd.h"
#include "fd/closure.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

TEST(UccTest, SingleKeyColumn) {
  Relation r = Relation::FromStringRows(
      Schema({"id", "x"}), {{"1", "a"}, {"2", "a"}, {"3", "b"}});
  auto uccs = testing::BruteForceUccs(r);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0], AttributeSet(2, {0}));
}

TEST(UccTest, CompositeKey) {
  // Neither column is unique, the pair is.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"1", "y"}, {"2", "x"}, {"2", "y"}});
  auto uccs = testing::BruteForceUccs(r);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0], AttributeSet(2, {0, 1}));
}

TEST(UccTest, DuplicateRowsMeanNoKey) {
  Relation r = Relation::FromStringRows(Schema::Generic(2),
                                        {{"1", "x"}, {"1", "x"}});
  EXPECT_TRUE(testing::BruteForceUccs(r).empty());
}

TEST(UccTest, DegenerateRelations) {
  Relation single = Relation::FromStringRows(Schema::Generic(2), {{"a", "b"}});
  auto uccs = testing::BruteForceUccs(single);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_TRUE(uccs[0].Empty());
}

TEST(UccTest, NullSemanticsMatter) {
  Relation r = Relation::FromRows(Schema({"a"}),
                                  {{std::nullopt}, {std::nullopt}, {"x"}});
  // null = null: the two NULLs collide, no key.
  EXPECT_TRUE(
      testing::BruteForceUccs(r, NullSemantics::kNullEqualsNull).empty());
  // null != null: every row distinct.
  EXPECT_EQ(testing::BruteForceUccs(r, NullSemantics::kNullUnequal).size(),
            1u);
}

class UccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UccPropertyTest, AgreesWithKeysDerivedFromFds) {
  Relation r = testing::RandomRelation(5, 60, GetParam(), 4);
  auto uccs = testing::BruteForceUccs(r);

  // Candidate keys computed from the discovered FDs must match the UCCs
  // found directly on the data: X is a UCC iff X determines every attribute
  // AND the relation has no duplicate full rows.
  FDSet fds = DiscoverFdsBruteForce(r);
  if (uccs.empty()) {
    // No key can exist only because of duplicate full rows; verify that.
    auto plis = BuildAllColumnPlis(r);
    Pli all = plis[0];
    for (size_t a = 1; a < plis.size(); ++a) all = all.Intersect(plis[a]);
    EXPECT_FALSE(all.IsUnique());
    return;
  }
  auto keys = CandidateKeys(fds, r.num_columns());
  std::sort(keys.begin(), keys.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              int ca = a.Count(), cb = b.Count();
              if (ca != cb) return ca < cb;
              return a < b;
            });
  EXPECT_EQ(uccs, keys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UccPropertyTest,
                         ::testing::Range(uint64_t{600}, uint64_t{610}));

TEST(FdIoTest, SerializeFormatsNames) {
  Schema schema({"a", "b", "c"});
  FDSet fds;
  fds.Add(AttributeSet(3, {0, 1}), 2);
  fds.Add(AttributeSet(3), 0);
  fds.Canonicalize();
  std::string text = SerializeFds(fds, schema);
  EXPECT_EQ(text, "{} -> a\na,b -> c\n");
}

TEST(FdIoTest, RoundTrip) {
  Relation r = testing::RandomRelation(5, 60, 91, 3);
  FDSet fds = DiscoverFds(r);
  std::string text = SerializeFds(fds, r.schema());
  FDSet parsed = ParseFds(text, r.schema());
  EXPECT_EQ(parsed, fds);
}

TEST(FdIoTest, ParseSkipsCommentsAndBlanks) {
  Schema schema({"a", "b"});
  FDSet fds = ParseFds("# comment\n\na -> b\n", schema);
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds[0], FD(AttributeSet(2, {0}), 1));
}

TEST(FdIoTest, ParseErrors) {
  Schema schema({"a", "b"});
  EXPECT_THROW(ParseFds("a b\n", schema), std::runtime_error);
  EXPECT_THROW(ParseFds("zz -> b\n", schema), std::runtime_error);
  EXPECT_THROW(ParseFds("a -> zz\n", schema), std::runtime_error);
}

}  // namespace
}  // namespace hyfd
