// Shared helpers of the repository benchmark: sample statistics, the
// open-loop schedule, an in-memory span tracer, metric output, and the
// generator recipes of the stand-in datasets.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty vector.
double Median(std::vector<double> samples);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the smallest
/// sample with at least p% of the samples at or below it.
double Percentile(std::vector<double> samples, double p);

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it under nearest rank, i.e. n * (1 - p/100) >= 10.
/// Returns 0 when even the median is unsupported (n < 20).
double HighestSupportedPercentile(size_t n);

/// True iff `n` samples support the p-th percentile (ten samples beyond it).
bool PercentileSupported(size_t n, double p);

/// Summary line of one timing: "name: p50 X unit, p99 Y unit (n=N)", with
/// the tail given only when the sample count supports it.
std::string DescribeTiming(const std::string& name,
                           const std::vector<double>& samples,
                           const std::string& unit);

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// Due offsets (seconds from the start) of a constant-rate open loop over
/// [0, seconds): request i is due at i / rate, whatever happened before it.
std::vector<double> ConstantRateArrivals(double rate, double seconds);

/// A stratified draw: every consecutive block of sum(counts) picks holds
/// exactly counts[k] copies of k, in an order shuffled by `rng`. Keeps a
/// mix's rare, expensive members evenly spread over a run, so runs with
/// different seeds offer the same load.
std::vector<int> StratifiedDraw(const std::vector<int>& counts, size_t n,
                                std::mt19937_64& rng);

/// Timestamps of one open-loop request. Latency is measured from the due
/// time, so a stall also charges the requests queued behind it; lateness is
/// how far behind its schedule the generator handed the request over.
struct RequestTimes {
  Clock::time_point due;
  Clock::time_point issued;
  Clock::time_point done;

  double LatencySeconds() const { return SecondsBetween(due, done); }
  double LatenessSeconds() const { return SecondsBetween(due, issued); }
};

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

/// In-memory spans recorded around calls into the program's layers. A span's
/// parent is the innermost span open when it began; a span's self time is
/// its duration minus the durations of its direct children. Single-threaded:
/// spans are opened and closed by the driving thread only.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  int Begin(std::string name);
  void End(int id);

  /// Self seconds summed per span name.
  std::map<std::string, double> SelfSeconds() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer->Begin(std::move(name))) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_->End(id_); }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Run result
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: the last line of stdout is its JSON.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed check: prints it to stderr and counts it.
  void Fail(const std::string& what);
  std::string ToJson() const;
};

/// The per-layer metric names and units every traced run emits (zero where
/// the workload does not exercise the layer). Kept in one place so every
/// workload reports the same set.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Names of the four service request types, in mix order.
const std::vector<std::string>& RequestTypeNames();

/// Process peak resident set size in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for generated CSV and cache files.
  std::string work_dir = ".";
  /// Self-check of the output checks: drop one FD from the expected set (or
  /// skip one oracle batch) so that every comparison must fail.
  bool corrupt_expected = false;
  /// Where exact counts are kept between runs of the same sources for the
  /// determinism check.
  std::string counts_dir;
};

RunResult RunDiscover(const Options& options);
RunResult RunService(const Options& options);

/// Compares `counts` with the counts an earlier run recorded for `key` in
/// options.counts_dir (and records them if none exist). Returns the names
/// whose values drifted.
std::vector<std::string> CheckCountsAcrossRuns(
    const Options& options, const std::string& key,
    const std::map<std::string, uint64_t>& counts);

// Column recipes of the stand-in profiles, copied from src/data/datasets.cc
// (that registry pins its generator seeds; the benchmark seeds its inputs).
hyfd::ColumnSpec WideSparseColumn(int c, size_t rows);  // plista, uniprot
hyfd::ColumnSpec MixedColumn(int c, size_t rows);       // adult, ncvoter

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
