// Micro-benchmarks (google-benchmark) for the substrates every discovery
// algorithm sits on: PLI construction and intersection, compressed-record
// matching, one Sampler phase, FDTree operations, and the Validator's direct
// refinement check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/hyfd.h"
#include "core/incremental.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "core/sampler.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/table_io.h"
#include "fd/fd_tree.h"
#include "legacy_validator.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/attribute_set.h"
#include "util/thread_pool.h"

namespace hyfd {
namespace {

Relation BenchRelation(size_t rows, int cols, uint64_t domain) {
  return GenerateFdReduced(rows, cols, domain, /*seed=*/7);
}

void BM_PliBuild(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 100);
  for (auto _ : state) {
    Pli pli = BuildColumnPli(r, 0);
    benchmark::DoNotOptimize(pli);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliIntersect(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 50);
  Pli a = BuildColumnPli(r, 0);
  Pli b = BuildColumnPli(r, 1);
  auto probing = b.BuildProbingTable();
  for (auto _ : state) {
    Pli ab = a.Intersect(probing);
    benchmark::DoNotOptimize(ab);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliIntersect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PliRefines(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 4, 50);
  Pli a = BuildColumnPli(r, 0);
  auto probing = BuildColumnPli(r, 1).BuildProbingTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Refines(probing));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PliRefines)->Arg(10000)->Arg(100000);

void BM_Match(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  Relation r = BenchRelation(4096, cols, 16);
  PreprocessedData data = Preprocess(r);
  RecordId i = 0;
  for (auto _ : state) {
    AttributeSet agree = data.records.Match(i, (i + 1) % 4096);
    benchmark::DoNotOptimize(agree);
    i = (i + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_Match)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// The agree-word kernel (AgreeWord, one call per 64 attributes) into a
/// reused word buffer — no allocation.
void BM_AgreeWords(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  Relation r = BenchRelation(4096, cols, 16);
  PreprocessedData data = Preprocess(r);
  std::vector<uint64_t> words(AttributeSet(cols).num_words());
  RecordId i = 0;
  for (auto _ : state) {
    data.records.AgreeWords(i, (i + 1) % 4096, words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
    i = (i + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_AgreeWords)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// One first sampling phase (cluster sortings, window runs, negative-cover
/// probes) on fd-reduced 100k×12, domain 16, threshold 0.001 — the
/// discover-long regime — at state.range(0) threads.
void BM_SamplerRun(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static const PreprocessedData data =
      Preprocess(BenchRelation(100000, 12, 16));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
  }
  size_t comparisons = 0;
  size_t non_fds = 0;
  double wall_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    Sampler sampler(&data, 0.001, SamplingStrategy::kClusterWindowing,
                    pool.get());
    benchmark::DoNotOptimize(sampler.Run({}));
    wall_ns += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    comparisons = sampler.total_comparisons();
    non_fds = sampler.num_non_fds();
  }
  state.counters["comparisons"] = static_cast<double>(comparisons);
  state.counters["non_fds"] = static_cast<double>(non_fds);
  // Wall time of a whole phase (cluster sorts included) per pair compared.
  state.counters["ns_per_pair"] =
      wall_ns / (static_cast<double>(state.iterations()) *
                 static_cast<double>(std::max<size_t>(comparisons, 1)));
}
// Real time: at 4 threads the calling thread mostly waits, so its CPU time
// would neither measure the phase nor bound the iteration count.
BENCHMARK(BM_SamplerRun)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Random ≤3-attribute sets over a fixed schema, shared by the cache
/// benchmarks so cold and warm runs request the same partitions.
std::vector<AttributeSet> CacheWorkload(int cols, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<AttributeSet> sets;
  sets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AttributeSet attrs(cols);
    int bits = 2 + static_cast<int>(rng() % 2);
    for (int b = 0; b < bits; ++b) attrs.Set(static_cast<int>(rng() % cols));
    sets.push_back(attrs);
  }
  return sets;
}

void ExportCacheCounters(benchmark::State& state, const PliCache& cache) {
  auto c = cache.counters();
  state.counters["hits"] = static_cast<double>(c.hits);
  state.counters["misses"] = static_cast<double>(c.misses);
  state.counters["evictions"] = static_cast<double>(c.evictions);
  state.counters["derivations"] = static_cast<double>(c.derivations);
  state.counters["cache_bytes"] = static_cast<double>(c.bytes);
}

/// Cold path: every Get() derives via subset intersection (Clear() between
/// iterations); the per-item cost is the intersection work the cache saves.
void BM_PliCacheColdGet(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 6, 50);
  PliCache cache = PliCache::FromRelation(r);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (auto _ : state) {
    cache.Clear();
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheColdGet)->Arg(10000)->Arg(100000);

/// Warm path: the same workload served entirely from cache hits.
void BM_PliCacheWarmGet(benchmark::State& state) {
  Relation r = BenchRelation(static_cast<size_t>(state.range(0)), 6, 50);
  PliCache cache = PliCache::FromRelation(r);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (const AttributeSet& attrs : workload) cache.Get(attrs);  // prefill
  for (auto _ : state) {
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheWarmGet)->Arg(10000)->Arg(100000);

/// Budget pressure: a budget far below the workload's footprint keeps the
/// LRU churning — measures eviction + rederivation overhead.
void BM_PliCacheEvictionChurn(benchmark::State& state) {
  Relation r = BenchRelation(50000, 6, 50);
  PliCache::Config config;
  config.budget_bytes = static_cast<size_t>(state.range(0));
  PliCache cache = PliCache::FromRelation(r, config);
  auto workload = CacheWorkload(r.num_columns(), 64, /*seed=*/17);
  for (auto _ : state) {
    for (const AttributeSet& attrs : workload) {
      benchmark::DoNotOptimize(cache.Get(attrs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  ExportCacheCounters(state, cache);
}
BENCHMARK(BM_PliCacheEvictionChurn)->Arg(64 << 10)->Arg(1 << 20);

// ---- Storage ladder: CSV parse vs binary table write/load -----------------
// The load-time cost the binary table cache (data/table_io.h) removes. Rows
// scale up to the largest bundled dataset's default size (poly-seq, 80000).

Relation StorageRelation(size_t rows) {
  return MakeDataset("poly-seq", rows);
}

void BM_CsvParse(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  const std::string csv = WriteCsvString(r);
  for (auto _ : state) {
    Relation parsed = ReadCsvString(csv);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvParse)->Arg(10000)->Arg(80000)->Unit(benchmark::kMillisecond);

void BM_BinaryWrite(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string bytes = SerializeTable(r);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinaryWrite)
    ->Arg(10000)
    ->Arg(80000)
    ->Unit(benchmark::kMillisecond);

void BM_BinaryLoad(benchmark::State& state) {
  Relation r = StorageRelation(static_cast<size_t>(state.range(0)));
  const std::string bytes = SerializeTable(r);
  for (auto _ : state) {
    Relation loaded = ParseTable(bytes);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_BinaryLoad)
    ->Arg(10000)
    ->Arg(80000)
    ->Unit(benchmark::kMillisecond);

// ---- Refinement shapes: legacy hash grouping vs the hash-free kernel ------
// The Validator's hot loop, isolated: one (LHS -> all other columns) check
// over a Zipf-skewed pivot whose giant clusters make per-record grouping the
// dominant cost. The planted FDs keep one RHS alive, so the scan runs to the
// end instead of early-exiting (the regime where grouping cost matters).
// Legacy comes from tests/legacy_validator.h — the frozen pre-kernel
// implementation with unordered_map / ClusterVectorHash grouping.

/// Shared fixture of the refinement benchmarks: skewed relation, its
/// preprocessed form, and the pivot/others split for an `lhs_size`-attribute
/// LHS over columns {0, 1, ...} with every remaining column as RHS.
struct RefineBenchFixture {
  Relation relation;
  PreprocessedData data;
  FDTree tree;
  AttributeSet lhs;
  AttributeSet rhss;
  std::vector<int> others;
  std::vector<int> rhs_attrs;
  RefineLeaf leaf;
  RefineJob job;

  RefineBenchFixture(int lhs_size, size_t rows)
      : relation(MakeSkewedRelation(rows)),
        data(Preprocess(relation)),
        tree(data.num_attributes),
        lhs(data.num_attributes),
        rhss(data.num_attributes) {
    for (int a = 0; a < lhs_size; ++a) lhs.Set(a);
    for (int a = lhs_size; a < data.num_attributes; ++a) rhss.Set(a);
    int pivot = -1;
    for (int attr = lhs.First(); attr != AttributeSet::kNpos;
         attr = lhs.NextAfter(attr)) {
      if (pivot == -1 ||
          data.rank[static_cast<size_t>(attr)] <
              data.rank[static_cast<size_t>(pivot)]) {
        pivot = attr;
      }
    }
    size_t code_bound = 1;
    for (int attr = lhs.First(); attr != AttributeSet::kNpos;
         attr = lhs.NextAfter(attr)) {
      if (attr == pivot) continue;
      others.push_back(attr);
      code_bound = std::max(
          code_bound,
          data.plis[static_cast<size_t>(attr)].NumStrippedClusters());
    }
    rhs_attrs = rhss.ToIndexes();
    leaf.others = others.data();
    leaf.num_others = others.size();
    leaf.rhs_attrs = rhs_attrs.data();
    leaf.num_rhs = rhs_attrs.size();
    job.records = &data.records;
    job.clusters = &data.plis[static_cast<size_t>(pivot)].clusters();
    job.leaves = &leaf;
    job.num_leaves = 1;
    job.other_code_bound = code_bound;
  }

  static Relation MakeSkewedRelation(size_t rows) {
    GeneratorConfig config;
    config.rows = rows;
    config.seed = 19;
    config.columns = {
        ColumnSpec{.cardinality = 3, .distribution = Distribution::kZipf},
        ColumnSpec{.cardinality = 64},
        ColumnSpec{.cardinality = 48},
        ColumnSpec{.cardinality = 1000, .sources = {0, 1}},
        ColumnSpec{.cardinality = 1000, .sources = {0, 1, 2}},
        ColumnSpec{.cardinality = 24},
    };
    return Generate(config);
  }
};

void BM_RefinesTwoAttrLegacy(benchmark::State& state) {
  RefineBenchFixture f(2, static_cast<size_t>(state.range(0)));
  legacy::LegacyValidator validator(&f.data, &f.tree, 1e18);
  for (auto _ : state) {
    auto out = validator.Refines(f.lhs, f.rhss);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesTwoAttrLegacy)->Arg(10000)->Arg(100000);

void BM_RefinesTwoAttrKernel(benchmark::State& state) {
  RefineBenchFixture f(2, static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunRefineTask(f.job, 0, f.job.clusters->size(), 0, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesTwoAttrKernel)->Arg(10000)->Arg(100000);

void BM_RefinesGeneralLegacy(benchmark::State& state) {
  RefineBenchFixture f(3, static_cast<size_t>(state.range(0)));
  legacy::LegacyValidator validator(&f.data, &f.tree, 1e18);
  for (auto _ : state) {
    auto out = validator.Refines(f.lhs, f.rhss);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesGeneralLegacy)->Arg(10000)->Arg(100000);

void BM_RefinesGeneralKernel(benchmark::State& state) {
  RefineBenchFixture f(3, static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunRefineTask(f.job, 0, f.job.clusters->size(), 0, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefinesGeneralKernel)->Arg(10000)->Arg(100000);

// ---- One lattice level: prefix-shared tries vs one job per LHS ------------
// Every 3-attribute LHS of an fd-reduced relation (the discover-long shape,
// scaled down) checked against every other column, as the Validator plans a
// level: pivot = the LHS attribute of lowest rank, the others ascending.
// Shared groups the LHSs into one trie per (pivot, first other); PerJob runs
// the same walk with one single-leaf trie per LHS.
struct LevelLhs {
  int pivot;
  std::vector<int> others;
  std::vector<int> rhs;
};

/// `lhs` split as the Validator plans it: the pivot is the attribute of
/// lowest rank, the others ascend.
LevelLhs PlanLhs(const PreprocessedData& data, const AttributeSet& lhs,
                 std::vector<int> rhs) {
  LevelLhs entry{lhs.First(), {}, std::move(rhs)};
  for (int a = lhs.First(); a != AttributeSet::kNpos; a = lhs.NextAfter(a)) {
    if (data.rank[static_cast<size_t>(a)] <
        data.rank[static_cast<size_t>(entry.pivot)]) {
      entry.pivot = a;
    }
  }
  for (int a = lhs.First(); a != AttributeSet::kNpos; a = lhs.NextAfter(a)) {
    if (a != entry.pivot) entry.others.push_back(a);
  }
  return entry;
}

/// Runs a level of `lhss` (sorted by (pivot, others)) as jobs of consecutive
/// LHSs; `shared` joins the LHSs with equal (pivot, first other) into one
/// trie. With `touched`, each job visits its pivot's touched clusters and
/// carries `first_new_record`. Returns the rows the walks kept.
size_t RunLevel(const PreprocessedData& data, const std::vector<LevelLhs>& lhss,
                bool shared, const std::vector<std::vector<uint32_t>>* touched,
                RecordId first_new_record, RefineArena* arena,
                RefineTaskOut* out) {
  size_t root_rows = 0;
  std::vector<RefineLeaf> leaves;
  for (size_t i = 0; i < lhss.size();) {
    size_t j = i + 1;
    while (shared && j < lhss.size() && lhss[j].pivot == lhss[i].pivot &&
           lhss[j].others[0] == lhss[i].others[0]) {
      ++j;
    }
    leaves.clear();
    for (size_t k = i; k < j; ++k) {
      RefineLeaf& leaf = leaves.emplace_back();
      leaf.others = lhss[k].others.data();
      leaf.num_others = lhss[k].others.size();
      leaf.rhs_attrs = lhss[k].rhs.data();
      leaf.num_rhs = lhss[k].rhs.size();
    }
    const auto pivot = static_cast<size_t>(lhss[i].pivot);
    RefineJob job;
    job.records = &data.records;
    job.clusters = &data.plis[pivot].clusters();
    job.visit = touched != nullptr ? &(*touched)[pivot] : nullptr;
    job.leaves = leaves.data();
    job.num_leaves = leaves.size();
    job.other_code_bound = data.num_records;
    job.first_new_record = first_new_record;
    const size_t num_visit =
        job.visit != nullptr ? job.visit->size() : job.clusters->size();
    RunRefineTask(job, 0, num_visit, 0, 0, arena, out);
    root_rows += out->root_rows;
    i = j;
  }
  return root_rows;
}

void SortLevel(std::vector<LevelLhs>* lhss) {
  std::sort(lhss->begin(), lhss->end(),
            [](const LevelLhs& x, const LevelLhs& y) {
              return std::tie(x.pivot, x.others) < std::tie(y.pivot, y.others);
            });
}

struct RefineLevelFixture {
  PreprocessedData data;
  std::vector<LevelLhs> lhss;  ///< sorted by (pivot, others)

  explicit RefineLevelFixture(size_t rows)
      : data(Preprocess(GenerateFdReduced(rows, 10, 16, /*seed=*/5))) {
    const int m = data.num_attributes;
    for (int a = 0; a < m; ++a) {
      for (int b = a + 1; b < m; ++b) {
        for (int c = b + 1; c < m; ++c) {
          std::vector<int> rhs;
          for (int attr = 0; attr < m; ++attr) {
            if (attr != a && attr != b && attr != c) rhs.push_back(attr);
          }
          lhss.push_back(PlanLhs(data, AttributeSet(m, {a, b, c}), rhs));
        }
      }
    }
    SortLevel(&lhss);
  }
};

void BM_RefineLevelShared(benchmark::State& state) {
  RefineLevelFixture f(static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunLevel(f.data, f.lhss, /*shared=*/true, nullptr, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.lhss.size()));
}
BENCHMARK(BM_RefineLevelShared)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_RefineLevelPerJob(benchmark::State& state) {
  RefineLevelFixture f(static_cast<size_t>(state.range(0)));
  RefineArena arena;
  RefineTaskOut out;
  for (auto _ : state) {
    RunLevel(f.data, f.lhss, /*shared=*/false, nullptr, 0, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.lhss.size()));
}
BENCHMARK(BM_RefineLevelPerJob)->Arg(20000)->Unit(benchmark::kMillisecond);

// ---- One restricted level: the batch filter --------------------------------
// An adult stand-in of 20,000 rows plus one 60-row batch (ids 20,000 and
// up). The level of the old rows' minimal FDs with the most FDs (LHS size
// ≥ 2) is re-checked as a session's restricted jobs do: one trie per (pivot,
// first other) over the pivot clusters the batch touched. Arg 1 sets
// first_new_record, so the walks keep only rows that can pair with a batch
// row; Arg 0 leaves it 0 and walks every row of the touched clusters.
struct RestrictedLevelFixture {
  static constexpr size_t kOldRows = 20000;
  static constexpr size_t kBatchRows = 60;
  PreprocessedData data;
  std::vector<LevelLhs> lhss;  ///< sorted by (pivot, others)
  std::vector<std::vector<uint32_t>> touched;

  RestrictedLevelFixture() {
    const Relation all = MakeDataset("adult", kOldRows + kBatchRows);
    data = Preprocess(all);
    const FDSet old_fds = DiscoverFds(all.HeadRows(kOldRows));
    std::vector<size_t> per_level(static_cast<size_t>(data.num_attributes) + 1);
    for (const FD& fd : old_fds) ++per_level[static_cast<size_t>(fd.lhs.Count())];
    const auto level = std::max_element(per_level.begin() + 2, per_level.end()) -
                       per_level.begin();
    std::map<AttributeSet, std::vector<int>> rhs_of;
    for (const FD& fd : old_fds) {
      if (fd.lhs.Count() == level) rhs_of[fd.lhs].push_back(fd.rhs);
    }
    for (const auto& [lhs, rhs] : rhs_of) lhss.push_back(PlanLhs(data, lhs, rhs));
    SortLevel(&lhss);
    for (const Pli& pli : data.plis) {
      std::vector<uint32_t>& list = touched.emplace_back();
      for (uint32_t ci = 0; ci < pli.clusters().size(); ++ci) {
        if (pli.clusters()[ci].back() >= kOldRows) list.push_back(ci);
      }
    }
  }
};

void BM_RefineLevelRestricted(benchmark::State& state) {
  static const RestrictedLevelFixture f;
  const RecordId first_new =
      state.range(0) != 0 ? RestrictedLevelFixture::kOldRows : 0;
  RefineArena arena;
  RefineTaskOut out;
  size_t root_rows = 0;
  for (auto _ : state) {
    root_rows = RunLevel(f.data, f.lhss, /*shared=*/true, &f.touched,
                         first_new, &arena, &out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["root_rows"] = static_cast<double>(root_rows);
  state.counters["lhss"] = static_cast<double>(f.lhss.size());
}
BENCHMARK(BM_RefineLevelRestricted)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// ---- One CRUD batch: the session path --------------------------------------
// An IncrementalHyFd over an adult stand-in of 20,000 rows × 14 columns at 1
// thread. Each iteration applies one ApplyMixed batch of 20 deletes, 20
// updates and 20 inserts (victims drawn from the live rows, new versions
// from rows past the seed), so the live count stays at 20,000: 100 batches
// in all, the same sequence every run.
void BM_ApplyMixedBatch(benchmark::State& state) {
  using Cells = std::vector<std::optional<std::string>>;
  constexpr size_t kBaseRows = 20000;
  constexpr size_t kChurn = 20;
  const size_t batches = static_cast<size_t>(state.max_iterations);
  const Relation all = MakeDataset("adult", kBaseRows + batches * 2 * kChurn);
  const auto row_of = [&](size_t r) {
    Cells row(static_cast<size_t>(all.num_columns()));
    for (int c = 0; c < all.num_columns(); ++c) {
      if (!all.IsNull(r, c)) row[static_cast<size_t>(c)] = all.Value(r, c);
    }
    return row;
  };
  IncrementalHyFd session(all.HeadRows(kBaseRows));
  std::mt19937_64 rng(29);
  std::vector<RecordId> live(kBaseRows);
  for (size_t i = 0; i < kBaseRows; ++i) live[i] = static_cast<RecordId>(i);
  const auto take_victim = [&] {
    const size_t k = rng() % live.size();
    const RecordId id = live[k];
    live[k] = live.back();
    live.pop_back();
    return id;
  };
  RecordId next_id = static_cast<RecordId>(kBaseRows);
  size_t next_row = kBaseRows;
  size_t comparisons = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<RecordId> deletes;
    std::vector<std::pair<RecordId, Cells>> updates;
    std::vector<Cells> inserts;
    for (size_t i = 0; i < kChurn; ++i) deletes.push_back(take_victim());
    for (size_t i = 0; i < kChurn; ++i) {
      updates.emplace_back(take_victim(), row_of(next_row++));
    }
    for (size_t i = 0; i < kChurn; ++i) inserts.push_back(row_of(next_row++));
    // Inserts take the first new ids, the updates' new versions the next.
    for (size_t i = 0; i < 2 * kChurn; ++i) live.push_back(next_id++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(session.ApplyMixed(inserts, deletes, updates));
    comparisons += session.last_batch_stats().comparisons;
  }
  state.counters["comparisons"] = benchmark::Counter(
      static_cast<double>(comparisons), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ApplyMixedBatch)
    ->Iterations(100)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FdTreeAddAndLookup(benchmark::State& state) {
  const int m = 32;
  std::mt19937_64 rng(11);
  std::vector<AttributeSet> lhss;
  for (int i = 0; i < 2000; ++i) {
    AttributeSet lhs(m);
    for (int b = 0; b < 4; ++b) lhs.Set(static_cast<int>(rng() % m));
    lhss.push_back(lhs);
  }
  for (auto _ : state) {
    FDTree tree(m);
    for (const auto& lhs : lhss) {
      if (!tree.ContainsFdOrGeneralization(lhs, 0)) tree.AddFd(lhs, 0);
    }
    benchmark::DoNotOptimize(tree.CountFds());
  }
  state.SetItemsProcessed(state.iterations() * lhss.size());
}
BENCHMARK(BM_FdTreeAddAndLookup);

void BM_FdTreeGetLevel(benchmark::State& state) {
  const int m = 24;
  std::mt19937_64 rng(13);
  FDTree tree(m);
  for (int i = 0; i < 5000; ++i) {
    AttributeSet lhs(m);
    for (int b = 0; b < 3; ++b) lhs.Set(static_cast<int>(rng() % m));
    tree.AddFd(lhs, static_cast<int>(rng() % m));
  }
  for (auto _ : state) {
    auto level = tree.GetLevel(3);
    benchmark::DoNotOptimize(level);
  }
}
BENCHMARK(BM_FdTreeGetLevel);

/// The agree sets of one first sampling phase (threshold 0.01) over the
/// plista stand-in (kWideSparse recipe, 1,000 rows × 34 columns) — what the
/// Inductor folds in discover-wide — widened to `cols` columns by appending
/// always-agreeing attributes, as constant columns would. Wider stand-ins
/// induce tens of millions of FDs; the widened sets induce the same tree
/// plus one root FD per appended column, so a 130-column run times the heap
/// path on the 34-column workload.
std::vector<AttributeSet> WideAgreeSets(int cols) {
  constexpr int kSampledCols = 34;
  static const std::vector<AttributeSet> sampled = [] {
    const PreprocessedData data =
        Preprocess(MakeDataset("plista", 1000, kSampledCols));
    Sampler sampler(&data, 0.01, SamplingStrategy::kClusterWindowing);
    return sampler.Run({});
  }();
  std::vector<AttributeSet> sets;
  sets.reserve(sampled.size());
  for (const AttributeSet& agree : sampled) {
    AttributeSet widened = AttributeSet::Full(cols);
    for (int a = 0; a < kSampledCols; ++a) {
      if (!agree.Test(a)) widened.Reset(a);
    }
    sets.push_back(widened);
  }
  return sets;
}

/// Algorithm 3 alone: folds the wide stand-in's agree sets into a fresh
/// tree. 34 columns keep every bitset inline; 130 take the heap path.
void BM_InductorUpdate(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  const std::vector<AttributeSet> agree_sets = WideAgreeSets(cols);
  size_t fds = 0;
  for (auto _ : state) {
    FDTree tree(cols);
    Inductor inductor(&tree);
    benchmark::DoNotOptimize(inductor.Update(agree_sets));
    fds = tree.CountFds();
  }
  state.counters["agree_sets"] = static_cast<double>(agree_sets.size());
  state.counters["fds"] = static_cast<double>(fds);
}
BENCHMARK(BM_InductorUpdate)->Arg(34)->Arg(130)->Unit(benchmark::kMillisecond);

/// Materializes the tree BM_InductorUpdate induces as a canonical FDSet.
void BM_FdTreeToFdSet(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  FDTree tree(cols);
  Inductor inductor(&tree);
  inductor.Update(WideAgreeSets(cols));
  for (auto _ : state) {
    FDSet fds = tree.ToFdSet();
    benchmark::DoNotOptimize(fds);
  }
  state.counters["fds"] = static_cast<double>(tree.CountFds());
}
BENCHMARK(BM_FdTreeToFdSet)->Arg(34)->Arg(130)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyfd

BENCHMARK_MAIN();
