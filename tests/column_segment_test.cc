#include "data/column_segment.h"

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/hyfd.h"
#include "data/relation.h"
#include "data/schema.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "pli/pli_builder.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

// ---- Value identity -------------------------------------------------------

// A cell's identity is its lexeme: spellings that name one number or one
// date are still distinct values, and every cell reads back the bytes that
// were appended.
TEST(ColumnSegmentTest, EverySpellingIsItsOwnValue) {
  const std::vector<std::pair<std::string, std::string>> respellings = {
      {"07", "7"},     {"2.50", "2.5"},  {"-0", "0"},
      {"1e3", "1000"}, {"1.0", "1"},     {"-0.0", "0.0"},
      {"+5", "5"},     {"0x10", "16"},   {"18446744073709551616",
                                          "18446744073709551617"},
      {"2024-01-31", "2024-1-31"},
  };
  for (const auto& [a, b] : respellings) {
    ColumnSegment s;
    s.Append(a);
    s.Append(b);
    s.Append(a);
    EXPECT_NE(s.code(0), s.code(1)) << a << " vs " << b;
    EXPECT_EQ(s.code(0), s.code(2)) << a;
    EXPECT_EQ(s.Value(0), a);
    EXPECT_EQ(s.Value(1), b);
    EXPECT_EQ(s.DistinctCount(), 2u) << a << " vs " << b;
    s.CheckInvariants();
  }
  // Numeric, date and free-text lexemes share one column without any
  // rewriting of earlier cells.
  ColumnSegment mixed;
  for (const char* lexeme : {"7", "x", "07", "2024-02-29", "nan", "", "7"}) {
    mixed.Append(lexeme);
  }
  EXPECT_EQ(mixed.DistinctCount(), 6u);
  EXPECT_EQ(mixed.code(0), mixed.code(6));
  EXPECT_EQ(mixed.Value(2), "07");
  EXPECT_EQ(mixed.Value(5), "");
  EXPECT_FALSE(mixed.IsNull(5));
}

TEST(ColumnSegmentTest, StringIdentityIsAppendOrderIndependent) {
  // Five pairwise-distinct lexemes, three of them spellings of the number 7:
  // every append order ends with each row reading back its own lexeme.
  std::vector<std::string> perm = {"07", "7", "x", "007", "2.50"};
  std::sort(perm.begin(), perm.end());
  do {
    ColumnSegment s;
    for (const std::string& lexeme : perm) s.Append(lexeme);
    for (size_t r = 0; r < perm.size(); ++r) {
      EXPECT_EQ(s.Value(r), perm[r]) << "row " << r;
    }
    EXPECT_EQ(s.DistinctCount(), perm.size());
    s.CheckInvariants();
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// Property: random Append/AppendNull/Set/SetNull/Resize sequences over
// numeric, date and free-text lexemes never change the code of a row the
// operation did not write, and the segment always equals a plain model of
// the lexemes (equal codes iff equal lexemes, exact bytes read back).
TEST(ColumnSegmentTest, NoMutationRecodesAnotherRow) {
  const std::vector<std::string> lexemes = {
      "7",   "07",  "007", "7.0",  "7.00", "1e3",  "1000", "-0",
      "0",   "0.0", "2.5", "2.50", "inf",  "nan",  "x",    "n/a",
      "",    "2024-01-31",     "2024-13-01",       "9007199254740993",
      "9007199254740992",      "18446744073709551616"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    ColumnSegment s;
    std::vector<std::optional<std::string>> model;
    for (int step = 0; step < 200; ++step) {
      const std::vector<uint32_t> before = s.codes();
      size_t written = before.size();  // the row an op wrote, if any
      const std::string& lexeme = lexemes[rng() % lexemes.size()];
      const uint64_t op = rng() % 10;
      if (op < 4 || model.empty()) {
        s.Append(lexeme);
        model.emplace_back(lexeme);
      } else if (op < 5) {
        s.AppendNull();
        model.emplace_back();
      } else if (op < 8) {
        written = rng() % model.size();
        s.Set(written, lexeme);
        model[written] = lexeme;
      } else if (op < 9) {
        written = rng() % model.size();
        s.SetNull(written);
        model[written].reset();
      } else {
        const size_t n = rng() % (model.size() + 4);
        s.Resize(n);
        model.resize(n);
      }
      ASSERT_EQ(s.size(), model.size()) << "seed " << seed << " step " << step;
      for (size_t r = 0; r < std::min(before.size(), s.size()); ++r) {
        if (r != written) {
          ASSERT_EQ(s.code(r), before[r])
              << "seed " << seed << " step " << step << " row " << r;
        }
      }
      for (size_t r = 0; r < model.size(); ++r) {
        ASSERT_EQ(s.IsNull(r), !model[r].has_value());
        if (model[r].has_value()) {
          ASSERT_EQ(s.Value(r), *model[r]);
        }
        for (size_t q = 0; q < r; ++q) {
          if (model[r].has_value() && model[q].has_value()) {
            ASSERT_EQ(s.code(r) == s.code(q), *model[r] == *model[q])
                << "rows " << q << ", " << r;
          }
        }
      }
      s.CheckInvariants();
    }
  }
}

// LiveRows() renumbers the live codes in place of re-appending each value;
// it must still equal a copy built by Append()ing the live values.
TEST(ColumnSegmentTest, LiveRowsEqualsAnAppendBuiltCopy) {
  std::mt19937_64 rng(2718);
  for (int trial = 0; trial < 200; ++trial) {
    ColumnSegment s;
    const size_t rows = rng() % 40;
    for (size_t r = 0; r < rows; ++r) {
      if (rng() % 6 == 0) {
        s.AppendNull();
      } else {
        s.Append("v" + std::to_string(rng() % 9));
      }
    }
    if (trial % 3 == 0) s.Normalize();
    std::vector<uint8_t> live(rows);
    for (uint8_t& l : live) l = static_cast<uint8_t>(rng() % 3 != 0);
    ColumnSegment expected;
    for (size_t r = 0; r < rows; ++r) {
      if (live[r] == 0) continue;
      if (s.IsNull(r)) {
        expected.AppendNull();
      } else {
        expected.Append(s.Value(r));
      }
    }
    const ColumnSegment copy = s.LiveRows(live);
    ASSERT_EQ(copy.dictionary(), expected.dictionary()) << "trial " << trial;
    ASSERT_EQ(copy.codes(), expected.codes()) << "trial " << trial;
    EXPECT_EQ(copy.sorted(), expected.sorted()) << "trial " << trial;
    EXPECT_EQ(copy.FoldFingerprint(17), expected.FoldFingerprint(17));
    EXPECT_EQ(s.FoldLiveFingerprint(17, live), expected.FoldFingerprint(17));
    copy.CheckInvariants();
  }
}

// ---- NULL handling --------------------------------------------------------

TEST(ColumnSegmentTest, NullsUseSentinelAndSkipDictionary) {
  ColumnSegment s;
  s.AppendNull();
  s.Append("a");
  s.AppendNull();
  EXPECT_TRUE(s.IsNull(0));
  EXPECT_FALSE(s.IsNull(1));
  EXPECT_EQ(s.code(0), kNullCode);
  EXPECT_EQ(s.dictionary().size(), 1u);
  EXPECT_EQ(s.Value(0), "");  // NULL renders empty, but is not the value ""
  s.Append("");
  EXPECT_FALSE(s.IsNull(3));
  EXPECT_NE(s.code(3), kNullCode);
}

TEST(ColumnSegmentTest, NullsRoundTripUnderBothSemantics) {
  Relation r = Relation::FromRows(
      Schema({"a", "b"}),
      {{std::nullopt, std::string("1")},
       {std::nullopt, std::string("1")},
       {std::string("x"), std::nullopt}});
  // kNullEqualsNull: the two NULLs in column a form one stripped cluster.
  Pli grouped = BuildColumnPli(r, 0, NullSemantics::kNullEqualsNull);
  EXPECT_EQ(grouped.clusters().size(), 1u);
  // kNullUnequal: every NULL is a stripped singleton.
  Pli stripped = BuildColumnPli(r, 0, NullSemantics::kNullUnequal);
  EXPECT_EQ(stripped.clusters().size(), 0u);
  // Column b's non-NULL duplicate survives either way.
  EXPECT_EQ(
      BuildColumnPli(r, 1, NullSemantics::kNullUnequal).clusters().size(), 1u);
}

// ---- Normalization --------------------------------------------------------

TEST(ColumnSegmentTest, NormalizeSortsAndCompacts) {
  ColumnSegment s;
  s.Append("2");
  s.Append("10");
  s.Append("9");
  s.Append("2");
  s.Set(0, "3");  // orphans "2"? no — row 3 still references it
  s.Set(3, "3");  // now "2" is orphaned
  EXPECT_FALSE(s.sorted());
  s.Normalize();
  EXPECT_TRUE(s.sorted());
  // Byte order, not numeric order: "10" < "3" < "9".
  EXPECT_EQ(s.dictionary(), (std::vector<std::string>{"10", "3", "9"}));
  EXPECT_EQ(s.Value(0), "3");
  EXPECT_EQ(s.Value(1), "10");
  EXPECT_EQ(s.Value(2), "9");
  EXPECT_EQ(s.Value(3), "3");
  s.CheckInvariants();
}

TEST(ColumnSegmentTest, PlanNormalizationMatchesNormalize) {
  ColumnSegment s;
  s.Append("b");
  s.Append("a");
  s.Append("c");
  s.Append("a");
  const ColumnSegment::NormalizationPlan plan = s.PlanNormalization();
  ASSERT_EQ(plan.slots.size(), 3u);
  ColumnSegment copy = s;
  copy.Normalize();
  for (size_t row = 0; row < s.size(); ++row) {
    EXPECT_EQ(plan.old_to_new[s.code(row)], copy.code(row));
  }
  for (size_t new_code = 0; new_code < plan.slots.size(); ++new_code) {
    EXPECT_EQ(s.dictionary()[plan.slots[new_code]],
              copy.dictionary()[new_code]);
  }
}

// ---- Audit negatives: each invariant fires --------------------------------

TEST(ColumnSegmentAuditTest, OutOfRangeCodeFires) {
  ColumnSegment s;
  s.Append("a");
  s.Append("b");
  s.CorruptCodeForTest(1, 17);
  EXPECT_THROW(s.CheckInvariants(), ContractViolation);
}

TEST(ColumnSegmentAuditTest, DuplicateDictionaryEntryFires) {
  ColumnSegment s;
  s.Append("a");
  s.Append("b");
  s.CorruptDictionaryForTest(1, "a");
  EXPECT_THROW(s.CheckInvariants(), ContractViolation);
}

TEST(ColumnSegmentAuditTest, FalseSortedClaimFires) {
  ColumnSegment s;
  s.Append("b");
  s.Append("a");  // first-occurrence order: dictionary is ["b", "a"]
  s.MarkSortedForTest();
  EXPECT_THROW(s.CheckInvariants(), ContractViolation);
}

TEST(ColumnSegmentAuditTest, UnreferencedEntryUnderSortedClaimFires) {
  ColumnSegment s;
  s.Append("a");
  s.Append("b");
  s.SetNull(1);  // orphans "b"; SetNull dropped the sorted claim
  s.CheckInvariants();
  s.MarkSortedForTest();  // reassert canonical layout falsely
  EXPECT_THROW(s.CheckInvariants(), ContractViolation);
}

// ---- FromParts validation -------------------------------------------------

TEST(ColumnSegmentFromPartsTest, AcceptsCanonicalParts) {
  ColumnSegment s =
      ColumnSegment::FromParts({"10", "2"}, {1, 0, kNullCode, 1});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.Value(0), "2");
  EXPECT_TRUE(s.IsNull(2));
  EXPECT_TRUE(s.sorted());
  s.CheckInvariants();
  // Appending after a load builds the encode index and finds loaded values.
  s.Append("10");
  EXPECT_EQ(s.code(4), 0u);
  s.CheckInvariants();
}

TEST(ColumnSegmentFromPartsTest, RejectsBadParts) {
  // Out-of-range code.
  EXPECT_THROW(ColumnSegment::FromParts({"a"}, {0, 1}), ContractViolation);
  // Unsorted dictionary (byte order: "2" < "10" is wrong).
  EXPECT_THROW(ColumnSegment::FromParts({"2", "10"}, {0, 1}),
               ContractViolation);
  // Unreferenced entry (canonical layout stores no dead values).
  EXPECT_THROW(ColumnSegment::FromParts({"a", "b"}, {0}), ContractViolation);
  // Duplicate entry.
  EXPECT_THROW(ColumnSegment::FromParts({"a", "a"}, {0, 1}),
               ContractViolation);
}

// ---- Relation-level behaviour on the new substrate ------------------------

TEST(RelationSegmentTest, LexemeIdentityFlowsIntoPlis) {
  Relation r = Relation::FromStringRows(
      Schema({"n", "tag"}),
      {{"07", "x"}, {"7", "y"}, {"8", "x"}, {"7", "z"}});
  // "07" and "7" are two values, so only rows 1 and 3 cluster.
  Pli pli = BuildColumnPli(r, 0);
  ASSERT_EQ(pli.clusters().size(), 1u);
  EXPECT_EQ(pli.clusters()[0], (std::vector<RecordId>{1, 3}));
}

// Two rows that differ only by a numeric respelling disagree on that
// column, so the FD that respelling keeps alive is reported — by HyFD and by
// brute force alike.
TEST(RelationSegmentTest, NumericRespellingSeparatesRowsForHyFd) {
  const Schema schema({"n", "d", "tag"});
  Relation r = Relation::FromStringRows(
      schema, {{"07", "2.50", "x"},
               {"7", "2.5", "y"},
               {"8", "3", "x"},
               {"9", "3", "x"}});
  const FDSet hyfd = DiscoverFds(r);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), hyfd, "respelling");
  // Were "07" = "7" and "2.50" = "2.5", rows 0 and 1 would refute n -> tag
  // and d -> tag.
  const std::vector<std::string> fds = hyfd.ToStrings(schema.names());
  for (const char* fd : {"[n] -> d", "[n] -> tag", "[d] -> tag"}) {
    EXPECT_NE(std::find(fds.begin(), fds.end(), fd), fds.end()) << fd;
  }
  for (int threads : {1, 4}) {
    HyFdConfig config;
    config.num_threads = threads;
    EXPECT_EQ(DiscoverFds(r, config), hyfd) << threads << " threads";
  }
}

TEST(RelationSegmentTest, NormalizeBumpsVersionAndPreservesContent) {
  Relation r = Relation::FromStringRows(Schema({"a"}), {{"b"}, {"a"}, {"b"}});
  const uint64_t before = r.version();
  const uint64_t fp_before = r.ContentFingerprint();
  r.Normalize();
  EXPECT_GT(r.version(), before);
  EXPECT_EQ(r.Value(0, 0), "b");
  EXPECT_EQ(r.Value(1, 0), "a");
  // The fingerprint covers the physical encoding, which changed.
  EXPECT_NE(r.ContentFingerprint(), fp_before);
  r.CheckInvariants();
}

TEST(RelationSegmentTest, ContentFingerprintSeesValueChanges) {
  Relation a = Relation::FromStringRows(Schema({"x"}), {{"1"}, {"1"}});
  Relation b = Relation::FromStringRows(Schema({"x"}), {{"2"}, {"2"}});
  // Identical cluster structure, different values: the storage fingerprint
  // must differ (this is what keeps a PliCache from aliasing a reload).
  EXPECT_NE(a.ContentFingerprint(), b.ContentFingerprint());
  Relation c = Relation::FromStringRows(Schema({"x"}), {{"1"}, {"1"}});
  EXPECT_EQ(a.ContentFingerprint(), c.ContentFingerprint());
}

}  // namespace
}  // namespace hyfd
