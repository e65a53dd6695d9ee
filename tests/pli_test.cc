#include "pli/pli.h"

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "data/generators.h"
#include "data/relation.h"
#include "gtest/gtest.h"
#include "pli/compressed_records.h"
#include "pli/pli_builder.h"
#include "test_util.h"

namespace hyfd {
namespace {

std::vector<std::vector<RecordId>> SortedClusters(const Pli& pli) {
  auto clusters = pli.clusters();
  for (auto& c : clusters) std::sort(c.begin(), c.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

// The paper's §5 example: Class(Teacher, Subject) with five tuples.
// π_Teacher = {{1,3,5}}, π_Subject = {{1,2,5},{3,4}} (1-based in the paper).
TEST(PliBuilderTest, PaperClassExample) {
  Relation r = MakeClassExample();
  Pli teacher = BuildColumnPli(r, 0);
  Pli subject = BuildColumnPli(r, 1);
  EXPECT_EQ(SortedClusters(teacher),
            (std::vector<std::vector<RecordId>>{{0, 2, 4}}));
  EXPECT_EQ(SortedClusters(subject),
            (std::vector<std::vector<RecordId>>{{0, 1, 4}, {2, 3}}));
  // π_{Teacher,Subject} = {{1,5}} in the paper.
  Pli both = teacher.Intersect(subject);
  EXPECT_EQ(SortedClusters(both), (std::vector<std::vector<RecordId>>{{0, 4}}));
}

TEST(PliTest, StripsSingletonClusters) {
  Relation r = Relation::FromStringRows(Schema({"a"}),
                                        {{"x"}, {"y"}, {"x"}, {"z"}});
  Pli pli = BuildColumnPli(r, 0);
  EXPECT_EQ(pli.NumStrippedClusters(), 1u);
  EXPECT_EQ(pli.NumClusters(), 3u);  // {x,x}, y, z
  EXPECT_EQ(pli.NumNonUniqueRecords(), 2u);
}

TEST(PliTest, UniqueColumn) {
  Relation r = Relation::FromStringRows(Schema({"a"}), {{"1"}, {"2"}, {"3"}});
  Pli pli = BuildColumnPli(r, 0);
  EXPECT_TRUE(pli.IsUnique());
  EXPECT_FALSE(pli.IsConstant());
  EXPECT_EQ(pli.NumClusters(), 3u);
}

TEST(PliTest, ConstantColumn) {
  Relation r = Relation::FromStringRows(Schema({"a"}), {{"c"}, {"c"}, {"c"}});
  Pli pli = BuildColumnPli(r, 0);
  EXPECT_TRUE(pli.IsConstant());
  EXPECT_FALSE(pli.IsUnique());
  EXPECT_EQ(pli.NumClusters(), 1u);
}

TEST(PliTest, ProbingTable) {
  Relation r = Relation::FromStringRows(Schema({"a"}),
                                        {{"x"}, {"y"}, {"x"}, {"z"}});
  Pli pli = BuildColumnPli(r, 0);
  auto table = pli.BuildProbingTable();
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0], table[2]);
  EXPECT_NE(table[0], kUniqueCluster);
  EXPECT_EQ(table[1], kUniqueCluster);
  EXPECT_EQ(table[3], kUniqueCluster);
}

TEST(PliTest, RefinesDetectsFd) {
  // a -> b holds; b -> a does not.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}),
      {{"1", "x"}, {"1", "x"}, {"2", "x"}, {"2", "x"}, {"3", "y"}});
  Pli a = BuildColumnPli(r, 0);
  Pli b = BuildColumnPli(r, 1);
  EXPECT_TRUE(a.Refines(b.BuildProbingTable()));
  EXPECT_FALSE(b.Refines(a.BuildProbingTable()));
}

TEST(PliTest, ErrorMeasureMatchesTane) {
  // e(X) = non-unique records - stripped clusters. For {x,x,x,y,y,z}:
  // 5 non-unique records in 2 clusters -> e = 3.
  Relation r = Relation::FromStringRows(
      Schema({"a"}), {{"x"}, {"x"}, {"x"}, {"y"}, {"y"}, {"z"}});
  Pli pli = BuildColumnPli(r, 0);
  EXPECT_EQ(pli.Error(), 3u);
}

TEST(PliTest, IntersectAssociativeOnRandomData) {
  Relation r = GenerateFdReduced(200, 3, 5, 99);
  Pli a = BuildColumnPli(r, 0);
  Pli b = BuildColumnPli(r, 1);
  Pli c = BuildColumnPli(r, 2);
  Pli ab_c = a.Intersect(b).Intersect(c);
  Pli a_bc = a.Intersect(b.Intersect(c));
  EXPECT_EQ(SortedClusters(ab_c), SortedClusters(a_bc));
}

TEST(PliBuilderTest, NullSemanticsChangeClusters) {
  Relation r = Relation::FromRows(
      Schema({"a"}), {{std::nullopt}, {std::nullopt}, {"x"}});
  Pli eq = BuildColumnPli(r, 0, NullSemantics::kNullEqualsNull);
  EXPECT_EQ(eq.NumStrippedClusters(), 1u);  // the two NULLs cluster together
  Pli ne = BuildColumnPli(r, 0, NullSemantics::kNullUnequal);
  EXPECT_TRUE(ne.IsUnique());  // every NULL is its own value
}

TEST(CompressedRecordsTest, ClusterIdsMatchPlis) {
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"1", "y"}, {"2", "x"}});
  auto plis = BuildAllColumnPlis(r);
  CompressedRecords records(plis, r.num_rows());
  EXPECT_EQ(records.num_records(), 3u);
  EXPECT_EQ(records.num_attributes(), 2);
  EXPECT_EQ(records.Cluster(0, 0), records.Cluster(1, 0));  // both "1"
  EXPECT_NE(records.Cluster(0, 0), kUniqueCluster);
  EXPECT_EQ(records.Cluster(2, 0), kUniqueCluster);         // "2" unique
  EXPECT_EQ(records.Cluster(0, 1), records.Cluster(2, 1));  // both "x"
  EXPECT_EQ(records.Cluster(1, 1), kUniqueCluster);         // "y" unique
}

TEST(CompressedRecordsTest, MatchComputesAgreeSet) {
  // Schema R(A,B,C) with records r1(1,2,3), r2(1,4,5) from paper §4:
  // agree set {A}; plus a third record to keep values non-unique.
  Relation r = Relation::FromStringRows(
      Schema({"A", "B", "C"}),
      {{"1", "2", "3"}, {"1", "4", "5"}, {"9", "2", "3"}});
  auto plis = BuildAllColumnPlis(r);
  CompressedRecords records(plis, r.num_rows());
  EXPECT_EQ(records.Match(0, 1).ToIndexes(), (std::vector<int>{0}));
  EXPECT_EQ(records.Match(0, 2).ToIndexes(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(records.Match(1, 2).Empty());
}

TEST(CompressedRecordsTest, UniqueValuesNeverMatch) {
  Relation r = Relation::FromStringRows(Schema({"a"}), {{"p"}, {"q"}});
  auto plis = BuildAllColumnPlis(r);
  CompressedRecords records(plis, r.num_rows());
  // Both records are unique in "a": the agree set must be empty even though
  // both carry the sentinel kUniqueCluster.
  EXPECT_TRUE(records.Match(0, 1).Empty());
}

TEST(CompressedRecordsTest, AgreeWordsMatchBitwiseOracle) {
  // Differential test of the agree-word kernel against a per-bit oracle at
  // every width from 1 to 200: every SSE2 lane tail and the word seams
  // 63/64/65 and 127/128/129. About a third of the cells hold a value no
  // other row has (kUniqueCluster); rows 0 and 1 are identical and hold no
  // unique cell, so they agree everywhere (the all-ones word at width 64).
  // AgreeWords writes into a buffer of stale all-ones words, so it must
  // overwrite every word.
  constexpr size_t kRows = 24;
  std::mt19937_64 rng(7);
  for (int cols = 1; cols <= 200; ++cols) {
    Relation r{Schema::Generic(cols)};
    std::vector<std::optional<std::string>> row(static_cast<size_t>(cols));
    for (size_t i = 0; i < kRows; ++i) {
      for (int c = 0; c < cols; ++c) {
        const uint64_t draw = rng() % 6;
        row[static_cast<size_t>(c)] =
            i < 2 ? "same" + std::to_string(c)
            : draw < 2 ? "unique" + std::to_string(i)
                       : "v" + std::to_string(draw);
      }
      r.AppendRow(row);
    }
    auto plis = BuildAllColumnPlis(r);
    CompressedRecords records(plis, r.num_rows());
    ASSERT_EQ(records.Match(0, 1), AttributeSet::Full(cols)) << cols;
    std::vector<uint64_t> words;
    for (RecordId a = 0; a < kRows; ++a) {
      for (RecordId b = a + 1; b < kRows; ++b) {
        AttributeSet oracle(cols);
        for (int i = 0; i < cols; ++i) {
          if (records.Cluster(a, i) != kUniqueCluster &&
              records.Cluster(a, i) == records.Cluster(b, i)) {
            oracle.Set(i);
          }
        }
        EXPECT_EQ(records.Match(a, b), oracle)
            << "cols=" << cols << " a=" << a << " b=" << b;
        EXPECT_EQ(records.Match(a, b).Hash(), oracle.Hash());
        words.assign(oracle.num_words(), ~uint64_t{0});
        records.AgreeWords(a, b, words.data());
        for (size_t w = 0; w < oracle.num_words(); ++w) {
          EXPECT_EQ(words[w], oracle.Word(w))
              << "cols=" << cols << " word " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hyfd
