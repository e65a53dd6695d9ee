// Reproduces Figure 8 of the HyFD paper: runtime and number of phase
// switches as a function of the efficiency-threshold parameter (HyFD's only
// parameter) on 10,000 records of the ncvoter-statewide stand-in.
//
// Flags: --rows=N (default 10000), --cols=N (default 24; the paper used
//        the full 71 columns on a 32-core server), --out=PATH (run-report
//        JSON, default BENCH_fig8.json).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "data/datasets.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hyfd;
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 10000));
  int cols = static_cast<int>(flags.GetInt("cols", 24));
  std::string out = flags.GetString("out", "BENCH_fig8.json");
  ReportSink sink("fig8_threshold");

  Relation relation = MakeDataset("ncvoter-statewide", rows, cols);

  std::printf("=== Figure 8: efficiency-threshold sweep (ncvoter-statewide, "
              "%zu rows) ===\n", rows);
  std::printf("%12s %10s %10s %10s %12s\n", "threshold", "runtime", "switches",
              "FDs", "comparisons");

  const std::vector<double> thresholds = {0.0001, 0.0003, 0.001, 0.003, 0.01,
                                          0.03,   0.1,    0.3,   1.0};
  for (double threshold : thresholds) {
    HyFdConfig config;
    config.efficiency_threshold = threshold;
    HyFd algo(config);
    Timer timer;
    FDSet fds = algo.Discover(relation);
    std::printf("%11.2f%% %9.2fs %10d %10zu %12zu\n", threshold * 100,
                timer.ElapsedSeconds(), algo.stats().phase_switches, fds.size(),
                algo.stats().comparisons);
    std::fflush(stdout);
    RunReport report = algo.report();
    report.dataset = "ncvoter-statewide";
    // The swept parameter, as parts-per-million (counters are integral).
    report.SetCounter("bench.threshold_ppm",
                      static_cast<uint64_t>(threshold * 1e6));
    sink.Add(report);
  }
  std::printf(
      "\nPaper reference (Fig. 8): the runtime is flat for thresholds between\n"
      "0.1%% and 10%% (both phases' efficiencies collapse abruptly, so any\n"
      "small threshold triggers the switch at the same moment); very small\n"
      "values oversample, very large ones over-validate. 4-5 switches were\n"
      "optimal on this dataset; 1%% is the recommended default.\n");
  return sink.WriteJson(out) ? 0 : 1;
}
