// Reproduces Figure 9 of the HyFD paper (§10.4): HyFD runtime against the
// number of threads on one sampling-dominated dataset. The paper measured
// near-linear scaling up to the core count on ncvoter/uniprot; here we sweep
// a doubling thread ladder on a generated stand-in and verify that every run
// returns the single-threaded result bit for bit.
//
// Besides the human-readable table, the harness writes one machine-readable
// JSON document (CI archives it as an artifact) so scaling regressions can
// be diffed across commits.
//
// Flags: --rows=N        rows of the generated relation (default 100000)
//        --cols=N        columns (default 12)
//        --max-threads=N top of the 1,2,4,... ladder (default: hardware)
//        --threshold=F   efficiency threshold; low values keep the run in
//                        Phase 1, making it sampling-dominated (default 0.001)
//        --out=PATH      JSON output path (default BENCH_threads.json)

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace hyfd;
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 100000));
  int cols = static_cast<int>(flags.GetInt("cols", 12));
  double threshold = flags.GetDouble("threshold", 0.001);
  long hardware = static_cast<long>(std::thread::hardware_concurrency());
  if (hardware < 1) hardware = 1;
  long max_threads = flags.GetInt("max-threads", hardware);
  std::string out = "BENCH_threads.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }

  // FD-reduced data keeps many same-value neighbours in every column, so the
  // Sampler's windows dominate the runtime (the regime Figure 9 measures).
  Relation relation = GenerateFdReduced(rows, cols, 16, /*seed=*/7);

  std::printf("=== Figure 9: thread scalability, %zu rows x %d cols "
              "(threshold %g, host has %ld cores) ===\n",
              rows, cols, threshold, hardware);
  std::printf("%8s %10s %8s %11s %11s %10s %12s %10s\n", "threads", "seconds",
              "speedup", "sampling", "validation", "FDs", "comparisons",
              "identical");

  struct Point {
    int threads;
    double seconds;
    double speedup;
    size_t fds;
    size_t comparisons;
    bool identical;
  };
  std::vector<Point> points;

  FDSet baseline_fds;
  HyFdStats baseline_stats;
  double baseline_seconds = 0;

  std::vector<int> ladder;
  for (long t = 1; t <= max_threads; t *= 2) ladder.push_back(static_cast<int>(t));
  if (!ladder.empty() && ladder.back() != max_threads) {
    ladder.push_back(static_cast<int>(max_threads));
  }

  ReportSink sink("fig9_threads");
  for (int threads : ladder) {
    HyFdConfig config;
    config.efficiency_threshold = threshold;
    config.num_threads = threads;
    HyFd algo(config);
    Timer timer;
    FDSet fds = algo.Discover(relation);
    double seconds = timer.ElapsedSeconds();
    RunReport report = algo.report();
    report.dataset = "fd-reduced (generated)";

    bool identical = true;
    if (threads == 1) {
      baseline_fds = fds;
      baseline_stats = algo.stats();
      baseline_seconds = seconds;
    } else {
      identical = fds == baseline_fds &&
                  algo.stats().comparisons == baseline_stats.comparisons &&
                  algo.stats().non_fds == baseline_stats.non_fds;
    }
    double speedup = seconds > 0 ? baseline_seconds / seconds : 0.0;
    // The phase split shows which of the two hybrid phases the extra threads
    // actually helped — sampling and validation parallelize independently
    // (the validation side through the refinement kernel's two-level task
    // splitting), so a flat total can hide one phase scaling and the other
    // regressing.
    std::printf("%8d %9.2fs %7.2fx %10.2fs %10.2fs %10zu %12zu %10s\n",
                threads, seconds, speedup, algo.stats().sampling_seconds,
                algo.stats().validation_seconds, fds.size(),
                algo.stats().comparisons, identical ? "yes" : "NO !!");
    std::fflush(stdout);
    points.push_back({threads, seconds, speedup, fds.size(),
                      algo.stats().comparisons, identical});
    report.SetCounter("bench.threads", static_cast<uint64_t>(threads));
    report.SetCounter("bench.identical", identical ? 1 : 0);
    report.SetCounter(
        "bench.sampling_milli",
        static_cast<uint64_t>(algo.stats().sampling_seconds * 1000));
    report.SetCounter(
        "bench.validation_milli",
        static_cast<uint64_t>(algo.stats().validation_seconds * 1000));
    sink.Add(report);
  }

  if (!sink.WriteJson(out)) return 1;

  std::printf(
      "Paper reference (Figure 9 / §10.4): sampling and validation both\n"
      "parallelize; HyFD scaled near-linearly to the core count. On a\n"
      "single-core host the ladder shows pool overhead instead of speedup;\n"
      "the `identical` column must read `yes` everywhere regardless.\n");

  bool all_identical = true;
  for (const Point& p : points) all_identical = all_identical && p.identical;
  return all_identical ? 0 : 2;
}
