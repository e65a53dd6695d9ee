// Ablation study for the design choices DESIGN.md calls out:
//   (a) the hybrid loop vs. validation-only (no sampling phase at all),
//   (b) focused cluster-windowing sampling vs. random record pairs,
//   (c) effect of the Validator's comparison suggestions is visible in (b):
//       both variants receive them, the difference is pair selection.
//   (d) the shared PLI cache on vs. off for the lattice algorithms (TANE,
//       DFD) — wall-clock with cache counters, FD sets must be identical.
//
// Flags: --rows=N (default 8000), --cols=N (default 24),
//        --lattice_cols=N (default 8; column cap for the cache ablation,
//        since full-width lattices are infeasible for TANE),
//        --out=PATH (run-report JSON, default BENCH_ablation.json).

#include <cstdio>
#include <string>

#include "baselines/registry.h"
#include "bench_util.h"
#include "core/hyfd.h"
#include "data/datasets.h"
#include "pli/pli_cache.h"
#include "util/timer.h"

namespace {

struct Variant {
  const char* name;
  hyfd::HyFdConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hyfd;
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 8000));
  int cols = static_cast<int>(flags.GetInt("cols", 24));
  std::string out = flags.GetString("out", "BENCH_ablation.json");
  ReportSink sink("ablation");

  Relation relation = MakeDataset("ncvoter-statewide", rows, cols);

  HyFdConfig hybrid;  // paper configuration
  HyFdConfig no_sampling;
  no_sampling.enable_sampling = false;
  HyFdConfig random_pairs;
  random_pairs.sampling_strategy = SamplingStrategy::kRandomPairs;

  const Variant variants[] = {
      {"hybrid (cluster windowing)", hybrid},
      {"validation-only (no phase 1)", no_sampling},
      {"random-pair sampling", random_pairs},
  };

  std::printf("=== Ablation on ncvoter-statewide (%zu rows) ===\n", rows);
  std::printf("%-30s %9s %10s %12s %12s %8s\n", "variant", "runtime",
              "switches", "comparisons", "validations", "FDs");
  size_t reference_fds = 0;
  int variant_index = 0;
  for (const Variant& v : variants) {
    HyFd algo(v.config);
    Timer timer;
    FDSet fds = algo.Discover(relation);
    const HyFdStats& s = algo.stats();
    RunReport report = algo.report();
    report.dataset = "ncvoter-statewide";
    report.SetCounter("bench.variant", static_cast<uint64_t>(variant_index++));
    sink.Add(report);
    if (reference_fds == 0) reference_fds = fds.size();
    std::printf("%-30s %8.2fs %10d %12zu %12zu %8zu%s\n", v.name,
                timer.ElapsedSeconds(), s.phase_switches, s.comparisons,
                s.validations, fds.size(),
                fds.size() == reference_fds ? "" : "  !! result mismatch");
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: validation-only pays for exploding candidate levels\n"
      "(many more validations); random pairs need more comparisons than the\n"
      "focused windows for the same negative cover; all three must agree on\n"
      "the FD set.\n");

  // (d) PLI cache on/off for the lattice algorithms. Column count is capped
  // because TANE's lattice is exponential in columns; 0 (or a garbage flag
  // value) must not fall through to the dataset's natural 71-column width.
  int lattice_cols = static_cast<int>(flags.GetInt("lattice_cols", 8));
  if (lattice_cols <= 0 || lattice_cols > 16) lattice_cols = 8;
  Relation lattice_rel = MakeDataset("ncvoter-statewide", rows, lattice_cols);

  std::printf("\n=== PLI cache ablation (%zu rows, %d cols) ===\n", rows,
              lattice_cols);
  std::printf("%-10s %-9s %9s %10s %10s %10s %8s\n", "algorithm", "cache",
              "runtime", "hits", "misses", "evictions", "FDs");
  for (const char* name : {"tane", "dfd"}) {
    FDSet cache_off_fds;
    for (bool use_cache : {false, true}) {
      RunReport report;
      report.dataset = "ncvoter-statewide";
      AlgoOptions options;
      options.use_pli_cache = use_cache;
      options.run_report = &report;
      PliCache cache = PliCache::FromRelation(lattice_rel);
      if (use_cache) options.pli_cache = &cache;
      Timer timer;
      FDSet fds = FindAlgorithm(name).run(lattice_rel, options);
      report.SetCounter("bench.pli_cache", use_cache ? 1 : 0);
      sink.Add(report);
      double elapsed = timer.ElapsedSeconds();
      auto c = cache.counters();
      bool mismatch = use_cache && !(fds == cache_off_fds);
      if (!use_cache) cache_off_fds = fds;
      std::printf("%-10s %-9s %8.2fs %10zu %10zu %10zu %8zu%s\n", name,
                  use_cache ? "on" : "off", elapsed, c.hits, c.misses,
                  c.evictions, fds.size(),
                  mismatch ? "  !! result mismatch" : "");
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nExpected shape: cache-on is neutral or faster (DFD especially —\n"
      "its random walk re-requests partitions constantly) and the FD sets\n"
      "are identical in both arms.\n");
  return sink.WriteJson(out) ? 0 : 1;
}
