// End-to-end integration: CSV → discovery → downstream use cases, dataset
// registry smoke coverage, and full-pipeline agreement on generated paper
// stand-ins.

#include <cstdio>
#include <filesystem>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "fd/closure.h"
#include "fd/normalizer.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

TEST(IntegrationTest, CsvFileToFdsToKeys) {
  std::string path =
      (std::filesystem::temp_directory_path() / "hyfd_it.csv").string();
  Relation original = MakeDataset("ncvoter", 300, 8);
  WriteCsvFile(original, path);

  Relation parsed = ReadCsvFile(path);
  ASSERT_EQ(parsed.num_rows(), original.num_rows());
  FDSet fds = DiscoverFds(parsed);
  testing::ExpectSameFds(DiscoverFds(original), fds, "csv round trip");

  auto keys = CandidateKeys(fds, parsed.num_columns(), 32);
  ASSERT_FALSE(keys.empty());
  // Every reported key must actually be unique on the data.
  for (const AttributeSet& key : keys) {
    auto plis = BuildAllColumnPlis(parsed);
    Pli combined = plis[static_cast<size_t>(key.First())];
    for (int a = key.NextAfter(key.First()); a != AttributeSet::kNpos;
         a = key.NextAfter(a)) {
      combined = combined.Intersect(plis[static_cast<size_t>(a)]);
    }
    EXPECT_TRUE(combined.IsUnique()) << key.ToString();
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, EveryRegisteredDatasetGenerates) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    Relation r = MakeDataset(spec.name, 50, std::min(spec.columns, 12));
    EXPECT_EQ(r.num_rows(), 50u) << spec.name;
    EXPECT_EQ(r.num_columns(), std::min(spec.columns, 12)) << spec.name;
    // Discovery must succeed on every family.
    FDSet fds = DiscoverFds(r);
    testing::ExpectSameFds(DiscoverFdsBruteForce(r), fds, spec.name);
  }
}

TEST(IntegrationTest, AllAlgorithmsOnPaperStandIns) {
  for (const char* name : {"iris", "bridges", "abalone"}) {
    const DatasetSpec& spec = FindDataset(name);
    Relation r = MakeDataset(name, std::min<size_t>(spec.default_rows, 200),
                             std::min(spec.columns, 8));
    FDSet expected = DiscoverFdsBruteForce(r);
    for (const AlgoInfo& algo : AllAlgorithms()) {
      testing::ExpectSameFds(expected, algo.run(r, AlgoOptions{}),
                             std::string(name) + "/" + algo.name);
    }
  }
}

TEST(IntegrationTest, NormalizationPipelineOnDiscoveredFds) {
  Relation r = MakeAddressDataset(400, 11);
  FDSet fds = DiscoverFds(r);
  Normalizer normalizer(r.num_columns(), fds);
  Decomposition d = normalizer.BcnfDecompose();
  ASSERT_GE(d.relations.size(), 2u);
  // Lossless-join sanity: the attribute union covers the schema and every
  // sub-relation has at least one key.
  AttributeSet covered(r.num_columns());
  for (const auto& sub : d.relations) {
    covered |= sub.attributes;
    EXPECT_FALSE(sub.keys.empty());
    for (const auto& key : sub.keys) {
      EXPECT_TRUE(key.IsSubsetOf(sub.attributes));
    }
  }
  EXPECT_EQ(covered, AttributeSet::Full(r.num_columns()));
}

TEST(IntegrationTest, HyFdScalesAcrossRowSlices) {
  // The same dataset at growing row counts: FD sets evolve but every result
  // must match the oracle (mirrors the Figure 6 sweep in miniature).
  Relation full = MakeDataset("ncvoter", 600, 7);
  for (size_t rows : {50u, 150u, 400u, 600u}) {
    Relation slice = full.HeadRows(rows);
    testing::ExpectSameFds(DiscoverFdsBruteForce(slice), DiscoverFds(slice),
                           "rows=" + std::to_string(rows));
  }
}

TEST(IntegrationTest, HyFdScalesAcrossColumnSlices) {
  Relation full = MakeDataset("plista", 200, 10);
  for (int cols : {2, 4, 6, 8, 10}) {
    Relation slice = full.HeadColumns(cols);
    testing::ExpectSameFds(DiscoverFdsBruteForce(slice), DiscoverFds(slice),
                           "cols=" + std::to_string(cols));
  }
}

TEST(IntegrationTest, StatsAreConsistentWithResults) {
  Relation r = MakeDataset("abalone", 500, 9);
  HyFd algo;
  FDSet fds = algo.Discover(r);
  const RunReport& report = algo.report();
  EXPECT_EQ(report.result_count, fds.size());
  EXPECT_GE(report.FindCounter("validator.levels"), 1u);
  // Every final FD was validated.
  EXPECT_GE(report.FindCounter("hyfd.validations"), fds.size());
  EXPECT_GE(report.FindCounter("hyfd.non_fds"), 1u);
}

TEST(IntegrationTest, RepeatedDiscoveryIsDeterministic) {
  Relation r = MakeDataset("breast-cancer", 400, 10);
  FDSet first = DiscoverFds(r);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(DiscoverFds(r), first);
  }
}

}  // namespace
}  // namespace hyfd
