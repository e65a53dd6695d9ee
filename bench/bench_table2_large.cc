// Reproduces Table 2 of the HyFD paper: HyFD single- vs multi-threaded on
// the large dataset stand-ins (row counts scaled to this machine; the paper
// ran 6M-45M rows on a 32-core server).
//
// Flags: --threads=N (default 4), --scale=F (row multiplier, default 1),
//        --full (run the paper's full column counts; much slower),
//        --out=PATH (run-report JSON, default BENCH_table2.json).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "data/datasets.h"

int main(int argc, char** argv) {
  using namespace hyfd;
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  int threads = static_cast<int>(flags.GetInt("threads", 4));
  double scale = flags.GetDouble("scale", 1.0);
  bool full = flags.GetBool("full");
  std::string out = flags.GetString("out", "BENCH_table2.json");
  ReportSink sink("table2_large");

  const std::vector<const char*> datasets = {
      "lineitem", "poly-seq", "atom-site", "zbc00dt",
      "iloa",     "ce4hi01",  "ncvoter-statewide", "cd",
  };

  std::printf("=== Table 2: HyFD single- vs multi-threaded (%d threads) ===\n",
              threads);
  std::printf("%-20s %5s %9s %10s %10s %8s %9s\n", "dataset", "cols", "rows",
              "1-thread", "N-thread", "speedup", "FDs");

  for (const char* name : datasets) {
    const DatasetSpec& spec = FindDataset(name);
    size_t rows = static_cast<size_t>(static_cast<double>(spec.default_rows) * scale);
    // Default runs cap the widest stand-ins: their full-width results are
    // astronomically large (paper: 5M FDs on ncvoter-statewide, 10 days).
    int cols = (!full && spec.columns > 24) ? 24 : spec.columns;
    Relation relation = MakeDataset(name, rows, cols);

    HyFd algo_single;
    Timer t1;
    FDSet fds = algo_single.Discover(relation);
    double s1 = t1.ElapsedSeconds();

    HyFdConfig multi;
    multi.num_threads = threads;
    HyFd algo_multi(multi);
    Timer t2;
    FDSet fds_multi = algo_multi.Discover(relation);
    double s2 = t2.ElapsedSeconds();

    RunReport report_single = algo_single.report();
    RunReport report_multi = algo_multi.report();
    report_single.dataset = name;
    report_multi.dataset = name;

    report_single.SetCounter("bench.threads", 1);
    report_multi.SetCounter("bench.threads", static_cast<uint64_t>(threads));
    sink.Add(report_single);
    sink.Add(report_multi);

    std::printf("%-20s %5d %9zu %9.2fs %9.2fs %7.2fx %9zu%s\n", name,
                cols, rows, s1, s2, s2 > 0 ? s1 / s2 : 0.0, fds.size(),
                fds.size() == fds_multi.size() ? "" : "  !! result mismatch");
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper reference (Table 2): 32 threads cut runtimes by 2-11x (e.g.\n"
      "ATOM_SITE 12h -> 64m). On a single-core host the multi-threaded run\n"
      "shows pool overhead instead of speedup; the result sets must match\n"
      "regardless.\n");
  return sink.WriteJson(out) ? 0 : 1;
}
