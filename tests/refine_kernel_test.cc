// Differential suite for the hash-free refinement kernel (the "validator"
// ctest label): the rewritten Validator must be indistinguishable — FD sets
// AND comparison-suggestion batches, bit for bit — from the preserved
// pre-kernel implementation (tests/legacy_validator.h) over the dataset
// registry, both NULL semantics, thread counts {1, 2, 8}, and with the PLI
// cache on and off; and from itself across thread counts on deliberately
// skewed data whose giant pivot cluster forces the two-level task splitter
// into its cluster-range and record-range paths.

#include "core/refine_kernel.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hyfd.h"
#include "core/incremental.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/validator.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "legacy_validator.h"
#include "test_util.h"

namespace hyfd {
namespace {

using SuggestionBatch = std::vector<std::pair<RecordId, RecordId>>;

/// Everything observable about one validation-only traversal: the final FD
/// set, the per-Run() suggestion batches (phase boundaries included — the
/// batches must align, not just their union), and the validation count.
struct Trace {
  FDSet fds;
  std::vector<SuggestionBatch> batches;
  size_t validations = 0;
};

/// Drives `validator` from an Inductor-seeded tree (∅ -> R, no sampling
/// knowledge) to completion, resuming after every efficiency pause.
template <typename Validator_, typename Result>
Trace Drive(FDTree* tree, Validator_* validator) {
  Trace trace;
  while (true) {
    Result r = validator->Run();
    trace.batches.push_back(std::move(r.comparison_suggestions));
    if (r.done) break;
  }
  trace.fds = tree->ToFdSet();
  trace.validations = validator->total_validations();
  return trace;
}

Trace RunKernelValidator(const PreprocessedData& data, double threshold,
                         ThreadPool* pool = nullptr, PliCache* cache = nullptr,
                         MetricsRegistry* metrics = nullptr) {
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  Validator validator(&data, &tree, threshold, pool, cache, metrics);
  return Drive<Validator, ValidatorResult>(&tree, &validator);
}

Trace RunLegacyValidator(const PreprocessedData& data, double threshold,
                         ThreadPool* pool = nullptr, PliCache* cache = nullptr) {
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  legacy::LegacyValidator validator(&data, &tree, threshold, pool, cache);
  return Drive<legacy::LegacyValidator, legacy::LegacyValidatorResult>(
      &tree, &validator);
}

void ExpectSameTrace(const Trace& expected, const Trace& actual,
                     const std::string& context) {
  hyfd::testing::ExpectSameFds(expected.fds, actual.fds, context);
  EXPECT_EQ(expected.validations, actual.validations) << context;
  ASSERT_EQ(expected.batches.size(), actual.batches.size())
      << context << ": phase boundaries differ";
  for (size_t b = 0; b < expected.batches.size(); ++b) {
    EXPECT_EQ(expected.batches[b], actual.batches[b])
        << context << ": suggestion batch " << b << " differs";
  }
}

/// A Validator-side PliCache (no pinned singles — the shape HyFd hands it).
std::unique_ptr<PliCache> MakeCache(const PreprocessedData& data,
                                    bool thread_safe, NullSemantics nulls) {
  PliCache::Config config;
  config.thread_safe = thread_safe;
  return std::make_unique<PliCache>(data.num_attributes, data.num_records,
                                    config, nulls);
}

/// Skewed relation for the splitter: a Zipf key-space gives column 0 one
/// giant cluster covering most rows (well past the splitter's 4096-record
/// grain), plus planted and accidental FDs on top of it.
Relation SkewedGiantClusterRelation(size_t rows = 12000) {
  GeneratorConfig config;
  config.rows = rows;
  config.seed = 99;
  config.columns = {
      ColumnSpec{.cardinality = 2, .distribution = Distribution::kZipf},
      ColumnSpec{.cardinality = 40},
      ColumnSpec{.cardinality = 12, .sources = {0, 1}},
      ColumnSpec{.cardinality = 5, .distribution = Distribution::kZipf},
      ColumnSpec{.cardinality = 600},
  };
  return Generate(config);
}

// ---- GroupRowsByCodes unit tests ------------------------------------------

/// Naive oracle: rows carrying kUniqueCluster in a grouping attribute are
/// dropped; the rest group by their exact code tuple.
std::map<std::vector<ClusterId>, std::vector<uint32_t>> NaiveGroups(
    const CompressedRecords& records, const std::vector<int>& attrs,
    const std::vector<RecordId>& rows, size_t* dropped) {
  std::map<std::vector<ClusterId>, std::vector<uint32_t>> groups;
  *dropped = 0;
  for (uint32_t p = 0; p < rows.size(); ++p) {
    std::vector<ClusterId> key;
    bool unique = false;
    for (int attr : attrs) {
      ClusterId c = records.Cluster(rows[p], attr);
      if (c == kUniqueCluster) {
        unique = true;
        break;
      }
      key.push_back(c);
    }
    if (unique) {
      ++*dropped;
      continue;
    }
    groups[key].push_back(p);
  }
  return groups;
}

TEST(GroupRowsByCodesTest, MatchesNaiveGroupingOnRandomData) {
  Relation r = testing::RandomRelation(5, 400, 17, 6);
  PreprocessedData data = Preprocess(r);
  RefineArena arena;
  const std::vector<std::vector<int>> attr_sets = {
      {}, {1}, {1, 2}, {1, 2, 3}, {4, 2, 1}};
  for (const auto& cluster : data.plis[0].clusters()) {
    for (const std::vector<int>& attrs : attr_sets) {
      const size_t num_groups =
          GroupRowsByCodes(data.records, attrs.data(), attrs.size(),
                           cluster.data(), cluster.size(),
                           /*code_bound=*/data.num_records, &arena);
      size_t naive_dropped = 0;
      auto naive = NaiveGroups(data.records, attrs, cluster, &naive_dropped);

      ASSERT_EQ(arena.group_offsets.size(), num_groups + 1);
      EXPECT_EQ(arena.group_offsets[0], 0u);
      EXPECT_EQ(arena.dropped, naive_dropped);
      EXPECT_EQ(num_groups, naive.size());
      EXPECT_EQ(arena.group_offsets[num_groups],
                cluster.size() - naive_dropped);

      // Each kernel group must be exactly one naive group, in stable
      // (ascending-position) member order.
      for (size_t g = 0; g < num_groups; ++g) {
        const uint32_t begin = arena.group_offsets[g];
        const uint32_t end = arena.group_offsets[g + 1];
        ASSERT_LT(begin, end);
        std::vector<ClusterId> key;
        for (int attr : attrs) {
          key.push_back(
              data.records.Cluster(cluster[arena.grouped_idx[begin]], attr));
        }
        auto it = naive.find(key);
        ASSERT_NE(it, naive.end());
        std::vector<uint32_t> members(arena.grouped_idx.begin() + begin,
                                      arena.grouped_idx.begin() + end);
        EXPECT_EQ(members, it->second);
      }
    }
  }
}

TEST(GroupRowsByCodesTest, SingleAttributeGroupsInFirstEncounterOrder) {
  Relation r = testing::RandomRelation(3, 200, 23, 4);
  PreprocessedData data = Preprocess(r);
  RefineArena arena;
  const int attr = 1;
  const auto& cluster = data.plis[0].clusters().at(0);
  const size_t num_groups =
      GroupRowsByCodes(data.records, &attr, 1, cluster.data(), cluster.size(),
                       data.num_records, &arena);
  // With one grouping attribute the hierarchical order degenerates to plain
  // first-encounter order of the codes.
  std::vector<ClusterId> seen;
  for (size_t g = 0; g < num_groups; ++g) {
    ClusterId code = data.records.Cluster(
        cluster[arena.grouped_idx[arena.group_offsets[g]]], attr);
    for (ClusterId prev : seen) EXPECT_NE(prev, code);
    seen.push_back(code);
  }
  // First-encounter: walking the cluster in order must meet the group codes
  // in exactly `seen` order.
  std::vector<ClusterId> encounter;
  for (RecordId rec : cluster) {
    ClusterId code = data.records.Cluster(rec, attr);
    if (code == kUniqueCluster) continue;
    bool known = false;
    for (ClusterId prev : encounter) known = known || prev == code;
    if (!known) encounter.push_back(code);
  }
  EXPECT_EQ(seen, encounter);
}

TEST(GroupRowsByCodesTest, EmptyInputAndDegenerateShapes) {
  Relation r = testing::RandomRelation(3, 50, 29, 3);
  PreprocessedData data = Preprocess(r);
  RefineArena arena;
  const int attr = 1;
  EXPECT_EQ(GroupRowsByCodes(data.records, &attr, 1, nullptr, 0,
                             data.num_records, &arena),
            0u);
  // num_attrs == 0: every row lands in the one trivial group.
  std::vector<RecordId> rows = {3, 1, 4, 1};
  const size_t num_groups = GroupRowsByCodes(
      data.records, nullptr, 0, rows.data(), rows.size(), 1, &arena);
  ASSERT_EQ(num_groups, 1u);
  EXPECT_EQ(arena.group_offsets[1], 4u);
  EXPECT_EQ(arena.dropped, 0u);
}

// ---- Kernel task splitting ------------------------------------------------

TEST(RefineKernelTest, RecordRangeSplitsMergeToWholeClusterResult) {
  Relation r = SkewedGiantClusterRelation(3000);
  PreprocessedData data = Preprocess(r);
  // Compare-to-first job: pivot on the skewed column, every other column an
  // RHS. This is the one shape whose records are independent, so record
  // ranges of one cluster must merge to the whole-cluster witnesses.
  const std::vector<int> rhs = {1, 2, 3, 4};
  RefineLeaf leaf;
  leaf.rhs_attrs = rhs.data();
  leaf.num_rhs = rhs.size();
  RefineJob job;
  job.records = &data.records;
  job.clusters = &data.plis[0].clusters();
  job.leaves = &leaf;
  job.num_leaves = 1;

  RefineArena arena;
  RefineTaskOut whole;
  RunRefineTask(job, 0, job.clusters->size(), 0, 0, &arena, &whole);

  for (uint32_t step : {64u, 777u, 100000u}) {
    RefineTaskOut merged;
    bool first = true;
    for (size_t ci = 0; ci < job.clusters->size(); ++ci) {
      const auto size = static_cast<uint32_t>((*job.clusters)[ci].size());
      for (uint32_t begin = 0; begin < size; begin += step) {
        RefineTaskOut part;
        RunRefineTask(job, ci, ci + 1, begin, std::min(size, begin + step),
                      &arena, &part);
        if (first) {
          merged = std::move(part);
          first = false;
        } else {
          MergeTaskOut(&merged, std::move(part));
        }
      }
    }
    const auto& got = merged.leaves.at(0).witnesses;
    const auto& want = whole.leaves.at(0).witnesses;
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].pos, want[j].pos)
          << "rhs " << rhs[j] << " step " << step;
      EXPECT_EQ(got[j].a, want[j].a);
      EXPECT_EQ(got[j].b, want[j].b);
    }
  }
}

// ---- Trie walk vs per-LHS oracle -------------------------------------------

/// The per-LHS refinement the trie walk replaced, kept as its oracle: per
/// cluster of [cluster_begin, cluster_end) (restricted to records
/// [rec_begin, rec_end) when rec_end > 0), group the leaf's whole LHS with
/// GroupRowsByCodes and check every group against its first member. Each
/// RHS keeps its minimum violating position; the leaf stops after a cluster
/// that left no RHS alive; collected groups appear in the order they gained
/// their second record.
RefineLeafOut OracleLeaf(const RefineJob& job, const RefineLeaf& leaf,
                         size_t cluster_begin, size_t cluster_end,
                         uint32_t rec_begin, uint32_t rec_end) {
  RefineLeafOut out;
  out.witnesses.assign(leaf.num_rhs, RefineWitness{});
  RefineArena arena;
  size_t remaining = leaf.num_rhs;
  for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
    const auto& cluster =
        (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
    const size_t num_groups = GroupRowsByCodes(
        *job.records, leaf.others, leaf.num_others, cluster.data(),
        cluster.size(), job.records->num_records(), &arena);
    const uint64_t base = uint64_t{ci} << 32;
    std::vector<std::pair<uint32_t, std::vector<RecordId>>> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      const uint32_t begin = arena.group_offsets[g];
      const uint32_t end = arena.group_offsets[g + 1];
      if (end - begin < 2) continue;
      const uint32_t rep_idx = arena.grouped_idx[begin];
      const ClusterId* rep = job.records->Record(cluster[rep_idx]);
      for (uint32_t p = begin + 1; p < end; ++p) {
        const uint32_t idx = arena.grouped_idx[p];
        if (rec_end > 0 && (idx < rec_begin || idx >= rec_end)) continue;
        const ClusterId* rec = job.records->Record(cluster[idx]);
        for (size_t j = 0; j < leaf.num_rhs; ++j) {
          RefineWitness& w = out.witnesses[j];
          const int rhs = leaf.rhs_attrs[j];
          if (w.pos < base) continue;
          if (rep[rhs] != kUniqueCluster && rep[rhs] == rec[rhs]) continue;
          if (base + idx >= w.pos) continue;
          if (w.pos == kNoWitnessPos) --remaining;
          w = {base + idx, cluster[rep_idx], cluster[idx]};
        }
      }
      if (leaf.collect) {
        auto& [second, members] = groups.emplace_back();
        second = arena.grouped_idx[begin + 1];
        for (uint32_t p = begin; p < end; ++p) {
          members.push_back(cluster[arena.grouped_idx[p]]);
        }
      }
    }
    std::sort(groups.begin(), groups.end());
    for (auto& group : groups) out.collected.push_back(std::move(group.second));
    if (remaining == 0) {
      out.complete = false;
      out.collected.clear();
      break;
    }
  }
  return out;
}

void ExpectSameLeafOut(const RefineLeafOut& want, const RefineLeafOut& got,
                       const std::string& context) {
  ASSERT_EQ(want.witnesses.size(), got.witnesses.size()) << context;
  for (size_t j = 0; j < want.witnesses.size(); ++j) {
    EXPECT_EQ(want.witnesses[j].pos, got.witnesses[j].pos)
        << context << " rhs #" << j;
    EXPECT_EQ(want.witnesses[j].a, got.witnesses[j].a) << context;
    EXPECT_EQ(want.witnesses[j].b, got.witnesses[j].b) << context;
  }
  EXPECT_EQ(want.complete, got.complete) << context;
  EXPECT_EQ(want.collected, got.collected) << context;
}

/// A random family of LHSs below one pivot: for each leaf a non-empty
/// subset of the other attributes (ascending, as the Validator orders them),
/// drawn so that many leaves share their leading attributes, plus a random
/// non-empty RHS set outside the LHS. Returned in lexicographic order.
struct LeafSpec {
  std::vector<int> others;
  std::vector<int> rhs;
};

std::vector<LeafSpec> RandomFamily(int m, int pivot, std::mt19937_64& rng) {
  std::vector<int> pool;
  for (int a = 0; a < m; ++a) {
    if (a != pivot) pool.push_back(a);
  }
  std::set<std::vector<int>> lhss;
  const size_t target = 1 + rng() % 12;
  while (lhss.size() < target) {
    // Leading attributes come from a small prefix of the pool, so leaves
    // collide on their first one or two others.
    std::vector<int> others;
    for (size_t i = 0; i < pool.size(); ++i) {
      const bool leading = i < 2;
      if (rng() % (leading ? 2 : 3) == 0) others.push_back(pool[i]);
    }
    if (!others.empty()) lhss.insert(others);
  }
  std::vector<LeafSpec> family;
  for (const std::vector<int>& others : lhss) {
    LeafSpec spec;
    spec.others = others;
    for (int a = 0; a < m; ++a) {
      if (a == pivot || std::count(others.begin(), others.end(), a) > 0) {
        continue;
      }
      if (rng() % 2 == 0) spec.rhs.push_back(a);
    }
    if (spec.rhs.empty()) continue;
    family.push_back(std::move(spec));
  }
  return family;
}

/// `r` with a batch that breaks FDs its old rows keep: each cell of the rows
/// ≥ `first_new` takes, with probability 1/3, the value (or NULL) of the
/// same column in a random row, so batch rows share codes with old rows.
Relation PerturbBatch(const Relation& r, size_t first_new, std::mt19937_64& rng) {
  std::vector<std::vector<std::optional<std::string>>> rows(r.num_rows());
  for (size_t row = 0; row < r.num_rows(); ++row) {
    for (int c = 0; c < r.num_columns(); ++c) {
      size_t from = row;
      if (row >= first_new && rng() % 3 == 0) from = rng() % r.num_rows();
      rows[row].push_back(r.IsNull(from, c)
                              ? std::nullopt
                              : std::optional<std::string>(r.Value(from, c)));
    }
  }
  return Relation::FromRows(r.schema(), rows);
}

/// True iff no two rows below `first_new` violate (pivot ∪ others) -> rhs
/// under the kernel's rule: rows sharing every LHS code (none of them
/// kUniqueCluster) must share a non-unique RHS code.
bool HoldsOnOldRows(const PreprocessedData& data, int pivot,
                    const std::vector<int>& others, int rhs,
                    RecordId first_new) {
  std::map<std::vector<ClusterId>, ClusterId> rhs_of;
  for (RecordId row = 0; row < first_new; ++row) {
    std::vector<ClusterId> key{data.records.Cluster(row, pivot)};
    for (int attr : others) key.push_back(data.records.Cluster(row, attr));
    if (std::count(key.begin(), key.end(), kUniqueCluster) > 0) continue;
    const ClusterId code = data.records.Cluster(row, rhs);
    const auto [it, fresh] = rhs_of.emplace(key, code);
    if (!fresh && (code == kUniqueCluster || it->second != code)) return false;
  }
  return true;
}

TEST(RefineTrieTest, MatchesPerLhsOracleOverShapesVisitListsAndSplits) {
  size_t alive_leaves = 0;
  size_t dead_leaves = 0;
  size_t collected_partitions = 0;
  size_t shared_prefixes = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    // Small domains make violations and long groups; fd-reduced data keeps
    // RHSs alive; NULLs and a wide domain put kUniqueCluster codes in play.
    const int m = 7;
    Relation r = seed % 3 == 0
                     ? GenerateFdReduced(400, m, 5, seed)
                     : testing::RandomRelation(m, 300, seed,
                                               seed % 3 == 1 ? 4 : 40, 0.05);
    PreprocessedData data = Preprocess(
        r, seed % 2 == 0 ? NullSemantics::kNullEqualsNull
                         : NullSemantics::kNullUnequal);
    std::mt19937_64 rng(seed * 7919);
    for (int pivot = 0; pivot < m; ++pivot) {
      const auto& clusters = data.plis[static_cast<size_t>(pivot)].clusters();
      if (clusters.empty()) continue;
      std::vector<LeafSpec> family = RandomFamily(m, pivot, rng);
      if (family.empty()) continue;
      // Compare-to-first: one leaf without others, over every RHS.
      LeafSpec first_only;
      for (int a = 0; a < m; ++a) {
        if (a != pivot) first_only.rhs.push_back(a);
      }
      std::vector<uint32_t> touched;
      for (uint32_t ci = 0; ci < clusters.size(); ++ci) {
        if (rng() % 2 == 0) touched.push_back(ci);
      }
      for (bool restricted : {false, true}) {
        for (bool collect : {false, true}) {
          for (bool trie : {true, false}) {
            const std::vector<LeafSpec> chosen =
                trie ? family : std::vector<LeafSpec>{first_only};
            std::vector<RefineLeaf> leaves;
            for (const LeafSpec& spec : chosen) {
              RefineLeaf& leaf = leaves.emplace_back();
              leaf.others = spec.others.data();
              leaf.num_others = spec.others.size();
              leaf.rhs_attrs = spec.rhs.data();
              leaf.num_rhs = spec.rhs.size();
              leaf.collect = collect && !spec.others.empty();
            }
            for (size_t k = 1; k < chosen.size(); ++k) {
              if (chosen[k].others[0] == chosen[k - 1].others[0]) {
                ++shared_prefixes;
              }
            }
            RefineJob job;
            job.records = &data.records;
            job.clusters = &clusters;
            job.visit = restricted ? &touched : nullptr;
            job.leaves = leaves.data();
            job.num_leaves = leaves.size();
            job.other_code_bound = data.num_records;
            const size_t num_visit =
                restricted ? touched.size() : clusters.size();
            const std::string context =
                "seed " + std::to_string(seed) + " pivot " +
                std::to_string(pivot) + (restricted ? " restricted" : "") +
                (collect ? " collect" : "") +
                (trie ? " trie" : " compare-to-first");
            RefineArena arena;
            // Every cluster range [b, e) is one task; record ranges of
            // single clusters for the compare-to-first shape.
            for (size_t b = 0; b < num_visit; ++b) {
              for (size_t e = b + 1; e <= num_visit; ++e) {
                RefineTaskOut out;
                RunRefineTask(job, b, e, 0, 0, &arena, &out);
                ASSERT_EQ(out.leaves.size(), leaves.size());
                for (size_t k = 0; k < leaves.size(); ++k) {
                  ExpectSameLeafOut(OracleLeaf(job, leaves[k], b, e, 0, 0),
                                    out.leaves[k],
                                    context + " range [" + std::to_string(b) +
                                        ", " + std::to_string(e) +
                                        ") leaf " + std::to_string(k));
                  if (b == 0 && e == num_visit) {
                    ++(out.leaves[k].complete ? alive_leaves : dead_leaves);
                    if (!out.leaves[k].collected.empty()) {
                      ++collected_partitions;
                    }
                  }
                }
              }
            }
            // Every split into consecutive single-cluster tasks merges to
            // the whole-range oracle.
            RefineTaskOut merged;
            for (size_t ci = 0; ci < num_visit; ++ci) {
              RefineTaskOut part;
              RunRefineTask(job, ci, ci + 1, 0, 0, &arena, &part);
              if (ci == 0) {
                merged = std::move(part);
              } else {
                MergeTaskOut(&merged, std::move(part));
              }
            }
            for (size_t k = 0; k < leaves.size() && num_visit > 0; ++k) {
              RefineLeafOut want = OracleLeaf(job, leaves[k], 0, num_visit, 0, 0);
              // Per-cluster tasks never stop early across clusters: only
              // the witnesses are split-invariant, plus the collected
              // partition of a leaf that survives.
              for (size_t j = 0; j < want.witnesses.size(); ++j) {
                EXPECT_EQ(want.witnesses[j].pos,
                          merged.leaves[k].witnesses[j].pos)
                    << context << " merged leaf " << k;
                EXPECT_EQ(want.witnesses[j].a, merged.leaves[k].witnesses[j].a);
                EXPECT_EQ(want.witnesses[j].b, merged.leaves[k].witnesses[j].b);
              }
              if (want.complete) {
                EXPECT_TRUE(merged.leaves[k].complete) << context;
                EXPECT_EQ(want.collected, merged.leaves[k].collected)
                    << context;
              }
            }
            if (trie) continue;
            for (size_t ci = 0; ci < num_visit; ++ci) {
              const auto size = static_cast<uint32_t>(
                  clusters[restricted ? touched[ci] : ci].size());
              for (uint32_t step : {1u, 7u}) {
                for (uint32_t rb = 0; rb < size; rb += step) {
                  const uint32_t re = std::min(size, rb + step);
                  RefineTaskOut out;
                  RunRefineTask(job, ci, ci + 1, rb, re, &arena, &out);
                  ExpectSameLeafOut(
                      OracleLeaf(job, leaves[0], ci, ci + 1, rb, re),
                      out.leaves[0],
                      context + " records [" + std::to_string(rb) + ", " +
                          std::to_string(re) + ")");
                }
              }
            }
          }
        }
      }
    }
  }
  // Not vacuous: leaves both survive and die, survivors collect, and
  // siblings share prefixes.
  EXPECT_GT(alive_leaves, 0u);
  EXPECT_GT(dead_leaves, 0u);
  EXPECT_GT(collected_partitions, 0u);
  EXPECT_GT(shared_prefixes, 0u);

  // Batch jobs: restricted jobs whose first_new_record marks the tail
  // rows as the batch, over leaves whose FDs every pair of old rows keeps.
  // The filtered walk must equal the unfiltered oracle, and its root-row
  // count must not depend on how the job is split.
  size_t batch_witnesses = 0;
  size_t batch_alive = 0;
  size_t old_only_groups = 0;
  size_t dropped_root_rows = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const int m = 7;
    const size_t n = seed % 3 == 0 ? 400 : 300;
    const auto first_new = static_cast<RecordId>(n - n / 6);
    std::mt19937_64 rng(seed * 104729);
    // Planted FDs give the old rows long LHS groups that keep their RHS;
    // NULLs put kUniqueCluster codes in play.
    GeneratorConfig gen;
    gen.rows = n;
    gen.seed = seed;
    gen.columns = {ColumnSpec{.cardinality = 5},
                   ColumnSpec{.cardinality = 4, .null_rate = 0.05},
                   ColumnSpec{.cardinality = 3 + seed % 3},
                   ColumnSpec{.cardinality = 40, .sources = {0, 1}},
                   ColumnSpec{.cardinality = 40, .sources = {1, 2}},
                   ColumnSpec{.cardinality = 40, .sources = {0, 2}},
                   ColumnSpec{.cardinality = 6, .null_rate = 0.05}};
    Relation r = PerturbBatch(Generate(gen), first_new, rng);
    PreprocessedData data = Preprocess(
        r, seed % 2 == 0 ? NullSemantics::kNullEqualsNull
                         : NullSemantics::kNullUnequal);
    for (int pivot = 0; pivot < m; ++pivot) {
      const auto& clusters = data.plis[static_cast<size_t>(pivot)].clusters();
      if (clusters.empty()) continue;
      // Keep each leaf's RHSs that hold on the old rows; drop empty leaves.
      std::vector<LeafSpec> family;
      for (LeafSpec& spec : RandomFamily(m, pivot, rng)) {
        std::erase_if(spec.rhs, [&](int rhs) {
          return !HoldsOnOldRows(data, pivot, spec.others, rhs, first_new);
        });
        if (!spec.rhs.empty()) family.push_back(std::move(spec));
      }
      LeafSpec first_only;
      for (int a = 0; a < m; ++a) {
        if (a != pivot && HoldsOnOldRows(data, pivot, {}, a, first_new)) {
          first_only.rhs.push_back(a);
        }
      }
      // Random touched lists, so some visited clusters hold no batch row.
      std::vector<uint32_t> touched;
      for (uint32_t ci = 0; ci < clusters.size(); ++ci) {
        if (rng() % 3 != 0) touched.push_back(ci);
      }
      // One job per first non-pivot attribute, as the Validator's tries
      // are keyed, plus the compare-to-first leaf.
      std::vector<std::vector<LeafSpec>> jobs;
      for (LeafSpec& spec : family) {
        if (jobs.empty() || jobs.back()[0].others[0] != spec.others[0]) {
          jobs.emplace_back();
        }
        jobs.back().push_back(std::move(spec));
      }
      if (!first_only.rhs.empty()) jobs.push_back({first_only});
      for (const std::vector<LeafSpec>& chosen : jobs) {
        const bool trie = !chosen[0].others.empty();
        std::vector<RefineLeaf> leaves;
        for (const LeafSpec& spec : chosen) {
          RefineLeaf& leaf = leaves.emplace_back();
          leaf.others = spec.others.data();
          leaf.num_others = spec.others.size();
          leaf.rhs_attrs = spec.rhs.data();
          leaf.num_rhs = spec.rhs.size();
        }
        RefineJob job;
        job.records = &data.records;
        job.clusters = &clusters;
        job.visit = &touched;
        job.leaves = leaves.data();
        job.num_leaves = leaves.size();
        job.other_code_bound = data.num_records;
        job.first_new_record = first_new;
        RefineJob unfiltered = job;
        unfiltered.first_new_record = 0;
        const size_t num_visit = touched.size();
        const std::string context =
            "seed " + std::to_string(seed) + " pivot " +
            std::to_string(pivot) + " batch" +
            (trie ? " trie" : " compare-to-first");
        RefineArena arena;
        for (size_t b = 0; b < num_visit; ++b) {
          for (size_t e = b + 1; e <= num_visit; ++e) {
            RefineTaskOut out;
            RunRefineTask(job, b, e, 0, 0, &arena, &out);
            RefineTaskOut full;
            RunRefineTask(unfiltered, b, e, 0, 0, &arena, &full);
            EXPECT_LE(out.root_rows, full.root_rows) << context;
            for (size_t k = 0; k < leaves.size(); ++k) {
              const RefineLeafOut want = OracleLeaf(job, leaves[k], b, e, 0, 0);
              ExpectSameLeafOut(want, out.leaves[k],
                                context + " range [" + std::to_string(b) +
                                    ", " + std::to_string(e) + ") leaf " +
                                    std::to_string(k));
              if (b == 0 && e == num_visit) {
                for (const RefineWitness& w : want.witnesses) {
                  ++(w.pos == kNoWitnessPos ? batch_alive : batch_witnesses);
                }
              }
            }
            if (b == 0 && e == num_visit) {
              dropped_root_rows += full.root_rows - out.root_rows;
            }
          }
        }
        // Single-cluster tasks sum to the whole range's root rows.
        RefineTaskOut whole;
        RunRefineTask(job, 0, num_visit, 0, 0, &arena, &whole);
        size_t summed = 0;
        for (size_t ci = 0; ci < num_visit; ++ci) {
          RefineTaskOut part;
          RunRefineTask(job, ci, ci + 1, 0, 0, &arena, &part);
          summed += part.root_rows;
          // Groups of ≥ 2 old rows only: what the filter exists to skip.
          const auto& cluster = clusters[touched[ci]];
          for (const RefineLeaf& leaf : leaves) {
            const size_t groups = GroupRowsByCodes(
                data.records, leaf.others, leaf.num_others, cluster.data(),
                cluster.size(), data.num_records, &arena);
            for (size_t g = 0; g < groups; ++g) {
              const uint32_t last = arena.grouped_idx[arena.group_offsets[g + 1] - 1];
              if (arena.group_offsets[g + 1] - arena.group_offsets[g] >= 2 &&
                  cluster[last] < first_new) {
                ++old_only_groups;
              }
            }
          }
        }
        EXPECT_EQ(whole.root_rows, summed) << context;
        if (trie) continue;
        for (size_t ci = 0; ci < num_visit; ++ci) {
          const auto size = static_cast<uint32_t>(clusters[touched[ci]].size());
          RefineTaskOut cluster_out;
          RunRefineTask(job, ci, ci + 1, 0, 0, &arena, &cluster_out);
          size_t range_rows = 0;
          for (uint32_t rb = 0; rb < size; rb += 7) {
            const uint32_t re = std::min(size, rb + 7);
            RefineTaskOut out;
            RunRefineTask(job, ci, ci + 1, rb, re, &arena, &out);
            range_rows += out.root_rows;
            ExpectSameLeafOut(OracleLeaf(job, leaves[0], ci, ci + 1, rb, re),
                              out.leaves[0],
                              context + " records [" + std::to_string(rb) +
                                  ", " + std::to_string(re) + ")");
          }
          EXPECT_EQ(cluster_out.root_rows, range_rows) << context;
        }
      }
    }
  }
  // Not vacuous: batch rows break some kept FDs and not others, the filter
  // drops rows, and old-only groups exist for it to skip.
  EXPECT_GT(batch_witnesses, 0u);
  EXPECT_GT(batch_alive, 0u);
  EXPECT_GT(dropped_root_rows, 0u);
  EXPECT_GT(old_only_groups, 0u);
}

// ---- Validator vs legacy oracle -------------------------------------------

TEST(RefineKernelDifferentialTest, MatchesLegacyAcrossRegistryThreadsAndCache) {
  // Full sweep: every registry profile × both NULL semantics × threads
  // {1, 2, 8} × cache {off, on}, against one serial cache-less legacy
  // baseline each. Rows/columns are capped for runtime; the profiles keep
  // their cardinality mix, which is what varies the kernel shapes.
  for (const DatasetSpec& spec : PaperDatasets()) {
    Relation r = MakeDataset(spec.name, std::min<size_t>(spec.default_rows, 150),
                             std::min(spec.columns, 7));
    for (NullSemantics nulls :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
      PreprocessedData data = Preprocess(r, nulls);
      // Threshold 0: every level with one invalid FD pauses, maximizing the
      // number of phase boundaries the batches must reproduce.
      Trace baseline = RunLegacyValidator(data, 0.0);
      for (int threads : {1, 2, 8}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) {
          pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
        }
        for (bool cache_on : {false, true}) {
          std::unique_ptr<PliCache> cache;
          if (cache_on) cache = MakeCache(data, threads > 1, nulls);
          Trace trace = RunKernelValidator(data, 0.0, pool.get(), cache.get());
          ExpectSameTrace(baseline, trace,
                          spec.name + (nulls == NullSemantics::kNullUnequal
                                           ? " (null!=null)"
                                           : "") +
                              " threads=" + std::to_string(threads) +
                              (cache_on ? " cache" : ""));
        }
      }
    }
  }
}

TEST(RefineKernelDifferentialTest, CacheHitPathMatchesLegacyColdPath) {
  // Second traversal over a warm cache serves multi-attribute LHSs from
  // Probe() — the collected partitions must therefore be byte-identical to
  // what the legacy grouping pass would have built. The planted FD
  // {0,1} -> 2 guarantees a surviving two-attribute LHS whose partition the
  // first pass collects (early-exited scans are never cached).
  GeneratorConfig gen;
  gen.rows = 300;
  gen.seed = 37;
  gen.columns = {ColumnSpec{.cardinality = 18},
                 ColumnSpec{.cardinality = 15},
                 ColumnSpec{.cardinality = 9, .sources = {0, 1}},
                 ColumnSpec{.cardinality = 4},
                 ColumnSpec{.cardinality = 6}};
  Relation r = Generate(gen);
  PreprocessedData data = Preprocess(r);
  Trace baseline = RunLegacyValidator(data, 0.0);

  auto cache = MakeCache(data, false, NullSemantics::kNullEqualsNull);
  Trace cold = RunKernelValidator(data, 0.0, nullptr, cache.get());
  Trace warm = RunKernelValidator(data, 0.0, nullptr, cache.get());
  ExpectSameTrace(baseline, cold, "cold cache");
  ExpectSameTrace(baseline, warm, "warm cache");
  EXPECT_GT(cache->counters().hits, 0u) << "second pass never hit the cache";
}

TEST(RefineKernelDifferentialTest, SkewedGiantClusterIsThreadInvariant) {
  // The splitter's stress shape: one pivot cluster holds most of the mass,
  // so the per-node-only baseline would serialize on it while the kernel
  // splits it into cluster/record ranges. Results must not notice.
  Relation r = SkewedGiantClusterRelation();
  PreprocessedData data = Preprocess(r);
  Trace baseline = RunLegacyValidator(data, 0.0);
  for (int threads : {1, 2, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
    }
    Trace trace = RunKernelValidator(data, 0.0, pool.get());
    ExpectSameTrace(baseline, trace,
                    "skewed threads=" + std::to_string(threads));
  }
}

TEST(RefineKernelDifferentialTest, FullPipelineBitIdenticalOnSkewedData) {
  // End to end: the whole hybrid loop (sampling + induction + validation)
  // on the skewed relation must return identical FDs *and* identical
  // counters for any thread count — the suggestions fed back to the Sampler
  // are part of the contract, not just the FD set.
  Relation r = SkewedGiantClusterRelation(6000);
  FDSet baseline_fds;
  RunReport baseline_report;
  for (int threads : {1, 2, 8}) {
    HyFdConfig config;
    config.num_threads = threads;
    HyFd algo(config);
    FDSet fds = algo.Discover(r);
    if (threads == 1) {
      baseline_fds = fds;
      baseline_report = algo.report();
      continue;
    }
    const std::string label = "pipeline threads=" + std::to_string(threads);
    hyfd::testing::ExpectSameFds(baseline_fds, fds, label);
    hyfd::testing::ExpectSameCounters(baseline_report, algo.report(), label);
  }
}

TEST(RefineKernelDifferentialTest, RestrictedModeMatchesFullRediscovery) {
  // Incremental sessions drive the kernel's restricted (touched-clusters)
  // visit lists; after every batch the session must agree with a
  // from-scratch discovery on the concatenated relation.
  Relation full = SkewedGiantClusterRelation(900);
  const size_t seed_rows = 600;
  for (int threads : {1, 8}) {
    IncrementalConfig config;
    config.num_threads = threads;
    IncrementalHyFd session(full.HeadRows(seed_rows), config);
    for (size_t from = seed_rows; from < full.num_rows(); from += 100) {
      const size_t to = std::min(full.num_rows(), from + 100);
      std::vector<std::vector<std::optional<std::string>>> batch;
      for (size_t row = from; row < to; ++row) {
        std::vector<std::optional<std::string>> cells(
            static_cast<size_t>(full.num_columns()));
        for (int c = 0; c < full.num_columns(); ++c) {
          if (!full.IsNull(row, c)) {
            cells[static_cast<size_t>(c)] = full.Value(row, c);
          }
        }
        batch.push_back(std::move(cells));
      }
      const FDSet& incremental = session.ApplyBatch(batch);
      FDSet scratch = DiscoverFds(full.HeadRows(to));
      hyfd::testing::ExpectSameFds(scratch, incremental,
                    "restricted mode, threads=" + std::to_string(threads) +
                        ", rows=" + std::to_string(to));
      EXPECT_GT(session.report().FindCounter("incremental.fds_revalidated"), 0u)
          << "batch never exercised the restricted path";
      // The restricted walks keep only rows that can pair with a new row.
      const uint64_t rows =
          session.report().FindCounter("validator.restricted_rows").value();
      const uint64_t kept =
          session.report().FindCounter("validator.restricted_rows_kept").value();
      EXPECT_GT(rows, 0u);
      EXPECT_LT(kept, rows);
    }
  }
}

TEST(RefineKernelTest, SuggestionBufferGaugesTrackPeakAndArena) {
  Relation r = testing::RandomRelation(5, 200, 41, 2);
  PreprocessedData data = Preprocess(r);
  MetricsRegistry metrics;
  Trace trace = RunKernelValidator(data, 0.0, nullptr, nullptr, &metrics);

  size_t total = 0;
  size_t max_batch = 0;
  for (const auto& batch : trace.batches) {
    total += batch.size();
    max_batch = std::max(max_batch, batch.size());
  }
  ASSERT_GT(total, 0u) << "data produced no violations — test is vacuous";

  // The peak gauge samples the buffer before each per-level dedup, so it
  // dominates every deduplicated batch the caller ever saw.
  EXPECT_GE(metrics.GetGauge("validator.suggestions_peak")->value(), max_batch);
  EXPECT_EQ(metrics.GetCounter("validator.suggestions")->value(), total);
  EXPECT_GT(metrics.GetGauge("validator.arena_bytes")->value(), 0u);
}

}  // namespace
}  // namespace hyfd
