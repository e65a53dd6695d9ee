// The one-shot discovery workloads (discover-long, discover-wide): a warm
// LoadCsvWithCache of the workload's CSV followed by HyFd::Discover.
//
// Untraced runs time whole iterations. Traced runs drive the public
// components in hyfd.cc's order (Preprocess -> (Sampler::Run ->
// Inductor::Update -> Validator::Run)* -> FDTree::ToFdSet, with an
// equivalent owned PliCache) inside spans, at 4 threads and at 1 thread.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/guardian.h"
#include "core/hyfd.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/sampler.h"
#include "core/validator.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table_io.h"
#include "fd/fd_tree.h"
#include "fd/reference.h"
#include "pli/pli_cache.h"
#include "util/memory_tracker.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace hyfd;

/// Both workloads run at the same thread count, so a parallelism change is
/// judged on both.
constexpr int kThreads = 4;
/// Reference FDs re-checked with FdHolds (validity and minimality) in set-up.
constexpr size_t kFdHoldsSample = 24;

struct Workload {
  double threshold = 0.01;
  Relation (*make)(uint64_t seed) = nullptr;
};

Relation MakeLong(uint64_t seed) {
  // The bench_fig9_threads configuration: long, narrow, low-cardinality.
  return GenerateFdReduced(100000, 12, 16, seed);
}

Relation MakeWide(uint64_t seed) {
  // The plista stand-in (kWideSparse recipe) at 1,000 rows x 34 columns.
  GeneratorConfig config;
  config.rows = 1000;
  config.seed = seed;
  for (int c = 0; c < 34; ++c) config.columns.push_back(WideSparseColumn(c, 1000));
  return Generate(config);
}

Workload FindWorkload(const std::string& name) {
  if (name == "discover-long") return Workload{0.001, &MakeLong};
  return Workload{0.01, &MakeWide};
}

/// Counts that must repeat exactly for a fixed seed, across runs and across
/// thread counts.
using Counts = std::map<std::string, uint64_t>;

Counts CountsOfReport(const RunReport& report) {
  auto counter = [&](const char* name) {
    return report.FindCounter(name).value_or(0);
  };
  return Counts{
      {"sampler.comparisons", counter("hyfd.comparisons")},
      {"hyfd.non_fds", counter("hyfd.non_fds")},
      {"validator.candidates", counter("validator.candidates")},
      {"hyfd.phase_switches", counter("hyfd.phase_switches")},
      {"fd.result_fds", report.result_count},
      {"pli_cache.hits", report.pli_cache_hits},
      {"pli_cache.misses", report.pli_cache_misses},
  };
}

std::string DescribeCounts(const Counts& counts) {
  std::string text;
  for (const auto& [name, value] : counts) {
    text += " " + name + "=" + std::to_string(value);
  }
  return text;
}

double SetupOnce(const Workload& workload, uint64_t seed,
                 const std::string& csv, RunResult* result) {
  const auto start = Clock::now();
  Relation relation = workload.make(seed);
  WriteCsvFile(relation, csv);
  std::error_code ec;
  std::filesystem::remove(csv + kTableCacheSuffix, ec);
  TableCacheStats stats;
  LoadCsvWithCache(csv, {}, false, &stats);
  const double seconds = SecondsBetween(start, Clock::now());
  if (!stats.cache_written) result->Fail("cold load did not write the binary cache");
  return seconds;
}

struct Untraced {
  double seconds = 0;
  FDSet fds;
  Counts counts;
};

/// One untraced iteration: warm load plus a fresh HyFd's Discover, the way a
/// one-shot user runs it.
Untraced RunUntraced(const std::string& csv, double threshold, int threads,
                     RunResult* result) {
  Untraced run;
  const auto start = Clock::now();
  TableCacheStats stats;
  Relation relation = LoadCsvWithCache(csv, {}, false, &stats);
  HyFdConfig config;
  config.efficiency_threshold = threshold;
  config.num_threads = threads;
  HyFd algo(config);
  run.fds = algo.Discover(relation);
  run.seconds = SecondsBetween(start, Clock::now());
  run.counts = CountsOfReport(algo.report());
  if (!stats.cache_hit) result->Fail("warm load missed the binary cache");
  return run;
}

struct Traced {
  double total_seconds = 0;
  std::map<std::string, double> self;  // span name -> self seconds
  FDSet fds;
  Counts counts;
  uint64_t non_fds_folded = 0;
  uint64_t validations = 0;
  uint64_t invalid_fds = 0;
  uint64_t levels = 0;
  size_t plis_bytes = 0;
  size_t negative_cover_bytes = 0;
  size_t fd_tree_bytes = 0;
};

/// One traced iteration over the public components, in hyfd.cc's order.
Traced RunTraced(const std::string& csv, double threshold, int threads) {
  Traced run;
  Tracer tracer;
  MetricsRegistry metrics;
  MemoryTracker tracker;
  Relation relation;
  int phase_switches = 0;
  PliCache::Counters cache_counters;
  size_t comparisons = 0;
  size_t non_fds = 0;
  size_t validations = 0;
  {
    ScopedSpan root(&tracer, "discover");
    {
      ScopedSpan span(&tracer, "data.load");
      relation = LoadCsvWithCache(csv);
    }
    PreprocessedData data;
    {
      ScopedSpan span(&tracer, "pli.preprocess");
      data = Preprocess(relation, NullSemantics::kNullEqualsNull);
    }
    {
      ScopedSpan span(&tracer, "trace.accounting");
      tracker.SetComponent(MemoryTracker::kPlis, data.MemoryBytes());
    }
    // HyFd's default owned cache: keyed by a full data fingerprint, and
    // thread-safe when the Validator runs on a pool.
    std::unique_ptr<PliCache> cache;
    {
      ScopedSpan span(&tracer, "pli_cache.fingerprint");
      (void)DataFingerprint(relation, data.records);
      PliCache::Config cache_config;
      cache_config.budget_bytes = PliCache::kDefaultBudgetBytes;
      cache_config.thread_safe = threads > 1;
      cache = std::make_unique<PliCache>(data.num_attributes, data.num_records,
                                         cache_config,
                                         NullSemantics::kNullEqualsNull);
    }
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));

    FDTree tree(data.num_attributes);
    Sampler sampler(&data, threshold, SamplingStrategy::kClusterWindowing,
                    pool.get(), &metrics);
    Inductor inductor(&tree, &metrics);
    MemoryGuardian guardian(0);
    Validator validator(&data, &tree, threshold, pool.get(), cache.get(),
                        &metrics);
    auto account = [&] {
      ScopedSpan span(&tracer, "trace.accounting");
      tracker.SetComponent(MemoryTracker::kNegativeCover,
                           sampler.NegativeCoverBytes());
      tracker.SetComponent(MemoryTracker::kFdTree, tree.MemoryBytes());
      run.negative_cover_bytes =
          std::max(run.negative_cover_bytes,
                   tracker.component_bytes(MemoryTracker::kNegativeCover));
      run.fd_tree_bytes = std::max(
          run.fd_tree_bytes, tracker.component_bytes(MemoryTracker::kFdTree));
    };

    std::vector<std::pair<RecordId, RecordId>> suggestions;
    while (true) {
      std::vector<AttributeSet> new_non_fds;
      {
        ScopedSpan span(&tracer, "sampler.run");
        new_non_fds = sampler.Run(suggestions);
      }
      {
        ScopedSpan span(&tracer, "inductor.update");
        inductor.Update(std::move(new_non_fds));
      }
      guardian.Check(&tree, sampler.NegativeCoverBytes() + data.MemoryBytes());
      account();
      ValidatorResult vr;
      {
        ScopedSpan span(&tracer, "validator.run");
        vr = validator.Run();
      }
      guardian.Check(&tree, sampler.NegativeCoverBytes() + data.MemoryBytes());
      account();
      if (vr.done) break;
      ++phase_switches;
      suggestions = std::move(vr.comparison_suggestions);
    }
    {
      ScopedSpan span(&tracer, "fd.to_fdset");
      run.fds = tree.ToFdSet();
    }
    cache_counters = cache->counters();
    comparisons = sampler.total_comparisons();
    non_fds = sampler.num_non_fds();
    validations = validator.total_validations();
    run.plis_bytes = tracker.component_bytes(MemoryTracker::kPlis);
  }
  const auto& root = tracer.spans().front();
  run.total_seconds = SecondsBetween(root.start, root.end);
  run.self = tracer.SelfSeconds();

  std::map<std::string, uint64_t> registry;
  for (const auto& [name, value] : metrics.Export()) registry[name] = value;
  run.non_fds_folded = registry["inductor.non_fds_folded"];
  run.invalid_fds = registry["validator.invalid_fds"];
  run.levels = registry["validator.levels"];
  run.validations = validations;
  run.counts = Counts{
      {"sampler.comparisons", comparisons},
      {"hyfd.non_fds", non_fds},
      {"validator.candidates", registry["validator.candidates"]},
      {"hyfd.phase_switches", static_cast<uint64_t>(phase_switches)},
      {"fd.result_fds", run.fds.size()},
      {"pli_cache.hits", cache_counters.hits},
      {"pli_cache.misses", cache_counters.misses},
  };
  return run;
}

/// Independent validity and minimality check of a seeded sample of the
/// reference FDs: each must hold, and must stop holding when any one LHS
/// attribute is dropped.
void CheckReferenceSample(const Relation& relation, const FDSet& reference,
                          uint64_t seed, RunResult* result) {
  if (reference.empty()) {
    result->Fail("reference FD set is empty");
    return;
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < kFdHoldsSample; ++i) {
    const FD& fd = reference[rng() % reference.size()];
    if (!FdHolds(relation, fd.lhs, fd.rhs)) {
      result->Fail("reference FD does not hold: " + fd.ToString());
    }
    for (int attr : fd.lhs.ToIndexes()) {
      if (FdHolds(relation, fd.lhs.Without(attr), fd.rhs)) {
        result->Fail("reference FD is not minimal: " + fd.ToString());
      }
    }
  }
}

}  // namespace

RunResult RunDiscover(const Options& options) {
  RunResult result;
  const Workload workload = FindWorkload(options.workload);
  const std::string csv = options.work_dir + "/" + options.workload + ".csv";

  // --- Set-up: generate, write the CSV, cold load that writes .hyfdbin. ---
  // It runs once here and again after every measured iteration, so that
  // setup_s, their median, samples the same stretch of the run as p50_ms.
  std::vector<double> setup_seconds = {SetupOnce(workload, options.seed, csv, &result)};

  // --- Expected output, outside setup_s: a single-threaded reference. -----
  Untraced reference = RunUntraced(csv, workload.threshold, 1, &result);
  CheckReferenceSample(LoadCsvWithCache(csv), reference.fds, options.seed,
                       &result);
  if (options.corrupt_expected) {
    std::vector<FD> altered(reference.fds.begin() + 1, reference.fds.end());
    reference.fds = FDSet(std::move(altered));
  }
  std::printf("%s seed %ju: %zu minimal FDs, 1-thread reference %.3f s;%s\n",
              options.workload.c_str(), static_cast<uintmax_t>(options.seed),
              reference.fds.size(), reference.seconds,
              DescribeCounts(reference.counts).c_str());

  auto check = [&](const FDSet& fds, const Counts& counts, const char* what) {
    ++result.attempted;
    if (!(fds == reference.fds)) {
      result.Fail(std::string(what) + ": FD set differs from the reference");
    } else if (counts != reference.counts) {
      result.Fail(std::string(what) + ": counts drifted from the 1-thread run:" +
                  DescribeCounts(counts));
    }
  };

  std::vector<double> untraced_seconds;
  std::vector<Traced> traced;
  Traced traced_serial;
  if (options.trace) {
    traced_serial = RunTraced(csv, workload.threshold, 1);
    check(traced_serial.fds, traced_serial.counts, "traced 1-thread run");
  }
  const auto start = Clock::now();
  while (untraced_seconds.size() < 3 ||
         SecondsBetween(start, Clock::now()) < options.seconds) {
    Untraced run = RunUntraced(csv, workload.threshold, kThreads, &result);
    check(run.fds, run.counts, "Discover");
    untraced_seconds.push_back(run.seconds);
    if (options.trace) {
      traced.push_back(RunTraced(csv, workload.threshold, kThreads));
      check(traced.back().fds, traced.back().counts, "traced 4-thread run");
    }
    setup_seconds.push_back(SetupOnce(workload, options.seed, csv, &result));
  }
  for (const auto& [what, samples] :
       {std::pair{"set-up", &setup_seconds},
        std::pair{"warm load + Discover", &untraced_seconds}}) {
    std::printf("%s; each:", DescribeTiming(what, *samples, "s").c_str());
    for (double s : *samples) std::printf(" %.3f", s);
    std::printf("\n");
  }

  if (!options.trace) {
    double total = 0;
    for (double s : untraced_seconds) total += s;
    result.Set("setup_s", Median(setup_seconds), "s");
    result.Set("p50_ms", Median(untraced_seconds) * 1e3, "ms");
    result.Set("ops_per_s", static_cast<double>(untraced_seconds.size()) / total,
               "1/s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) result.Set(name, 0, unit);
  // Layer times come from the traced run with the median total, so that
  // they and trace.uncovered_s add up to trace.total_s exactly.
  std::sort(traced.begin(), traced.end(), [](const Traced& a, const Traced& b) {
    return a.total_seconds < b.total_seconds;
  });
  const Traced& median_run = traced[(traced.size() - 1) / 2];
  auto self_of = [](const Traced& run, const char* span) {
    auto it = run.self.find(span);
    return it == run.self.end() ? 0.0 : it->second;
  };
  const std::vector<std::pair<const char*, const char*>> layers = {
      {"data.load_s", "data.load"},
      {"pli.preprocess_s", "pli.preprocess"},
      {"pli_cache.fingerprint_s", "pli_cache.fingerprint"},
      {"sampler.run_s", "sampler.run"},
      {"inductor.update_s", "inductor.update"},
      {"validator.run_s", "validator.run"},
      {"fd.to_fdset_s", "fd.to_fdset"},
      {"trace.accounting_s", "trace.accounting"},
      {"trace.uncovered_s", "discover"},  // the root span's self time
  };
  for (const auto& [metric, span] : layers) {
    result.Set(metric, self_of(median_run, span), "s");
  }
  result.Set("trace.total_s", median_run.total_seconds, "s");
  result.Set("trace.overhead_s", median_run.total_seconds - Median(untraced_seconds),
             "s");
  auto speedup = [&](const char* span) {
    const double parallel = self_of(median_run, span);
    return parallel > 0 ? self_of(traced_serial, span) / parallel : 0.0;
  };
  result.Set("sampler.speedup", speedup("sampler.run"), "x");
  result.Set("validator.speedup", speedup("validator.run"), "x");

  // Counts are identical in every traced run (checked above).
  const Traced& any = median_run;
  for (const auto& [name, value] : any.counts) {
    result.Set(name, static_cast<double>(value), "count");
  }
  const double comparisons = static_cast<double>(any.counts.at("sampler.comparisons"));
  result.Set("sampler.yield",
             comparisons > 0
                 ? static_cast<double>(any.counts.at("hyfd.non_fds")) / comparisons
                 : 0,
             "ratio");
  result.Set("inductor.non_fds_folded", static_cast<double>(any.non_fds_folded),
             "count");
  result.Set("validator.invalid_ratio",
             any.validations > 0 ? static_cast<double>(any.invalid_fds) /
                                       static_cast<double>(any.validations)
                                 : 0,
             "ratio");
  result.Set("validator.levels", static_cast<double>(any.levels), "count");
  result.Set("mem.plis_bytes", static_cast<double>(any.plis_bytes), "bytes");
  result.Set("mem.negative_cover_bytes",
             static_cast<double>(any.negative_cover_bytes), "bytes");
  result.Set("mem.fd_tree_bytes", static_cast<double>(any.fd_tree_bytes), "bytes");

  const std::vector<std::string> drifted = CheckCountsAcrossRuns(
      options, options.workload + "-" + std::to_string(options.seed), any.counts);
  for (const std::string& name : drifted) {
    result.Fail("count " + name + " drifted from an earlier run with this seed");
  }
  result.Set("trace.count_drift", static_cast<double>(drifted.size()), "count");
  return result;
}

}  // namespace perfbench
