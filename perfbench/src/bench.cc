#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "service/protocol.h"

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool PercentileSupported(size_t n, double p) {
  // Nearest rank puts ceil(p/100 * n) samples at or below the percentile.
  const double at_or_below = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<double>(n) - at_or_below >= 10;
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 0;
}

std::string DescribeTiming(const std::string& name,
                           const std::vector<double>& samples,
                           const std::string& unit) {
  char line[256];
  int len = std::snprintf(line, sizeof(line), "%s: p50 %.3f %s", name.c_str(),
                          Median(samples), unit.c_str());
  const double tail = HighestSupportedPercentile(samples.size());
  if (tail > 50) {
    len += std::snprintf(line + len, sizeof(line) - static_cast<size_t>(len),
                         ", p%g %.3f %s", tail, Percentile(samples, tail),
                         unit.c_str());
  }
  std::snprintf(line + len, sizeof(line) - static_cast<size_t>(len), " (n=%zu)",
                samples.size());
  return line;
}

std::vector<double> ConstantRateArrivals(double rate, double seconds) {
  std::vector<double> offsets;
  if (rate <= 0) return offsets;
  for (size_t i = 0; static_cast<double>(i) / rate < seconds; ++i) {
    offsets.push_back(static_cast<double>(i) / rate);
  }
  return offsets;
}

std::vector<int> StratifiedDraw(const std::vector<int>& counts, size_t n,
                                std::mt19937_64& rng) {
  std::vector<int> block;
  for (size_t k = 0; k < counts.size(); ++k) {
    block.insert(block.end(), static_cast<size_t>(counts[k]), static_cast<int>(k));
  }
  std::vector<int> draws;
  while (draws.size() < n && !block.empty()) {
    std::shuffle(block.begin(), block.end(), rng);
    const size_t take = std::min(block.size(), n - draws.size());
    draws.insert(draws.end(), block.begin(), block.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return draws;
}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end = Clock::now();
  // Spans close in LIFO order; anything opened after `id` closes with it.
  while (!open_.empty() && open_.back() >= id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SecondsBetween(spans_[i].start, spans_[i].end);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -=
          SecondsBetween(spans_[i].start, spans_[i].end);
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

void RunResult::Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  correct = false;
  ++failed;
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

}  // namespace

std::string RunResult::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << FormatNumber(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

const std::vector<std::string>& RequestTypeNames() {
  static const std::vector<std::string> names = {"apply_mixed", "query_fds",
                                                 "fetch_report", "query_uccs"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        // One-shot discovery (discover-*), medians over traced runs.
        {"data.load_s", "s"},
        {"pli.preprocess_s", "s"},
        {"pli_cache.fingerprint_s", "s"},
        {"sampler.run_s", "s"},
        {"sampler.comparisons", "count"},
        {"sampler.yield", "ratio"},
        {"sampler.speedup", "x"},
        {"inductor.update_s", "s"},
        {"inductor.non_fds_folded", "count"},
        {"validator.run_s", "s"},
        {"validator.candidates", "count"},
        {"validator.invalid_ratio", "ratio"},
        {"validator.levels", "count"},
        {"validator.speedup", "x"},
        {"fd.to_fdset_s", "s"},
        {"fd.result_fds", "count"},
        {"mem.plis_bytes", "bytes"},
        {"mem.negative_cover_bytes", "bytes"},
        {"mem.fd_tree_bytes", "bytes"},
        {"hyfd.phase_switches", "count"},
        {"hyfd.non_fds", "count"},
        {"pli_cache.hits", "count"},
        {"pli_cache.misses", "count"},
        // CRUD sessions and the service (service-mixed).
        {"session.apply_mixed_ms", "ms"},
        {"session.live_copy_ms", "ms"},
        {"hyucc.discover_ms", "ms"},
        {"incremental.touched_clusters", "count"},
        {"incremental.validations", "count"},
        {"incremental.comparisons", "count"},
        {"incremental.fds_generalized", "count"},
        {"service.write_p50_ms", "ms"},
        {"service.write_p95_ms", "ms"},
        {"service.read_p50_ms", "ms"},
        {"service.read_p95_ms", "ms"},
        {"service.goodput_rps", "1/s"},
        {"service.generator_late_p99_ms", "ms"},
    };
    for (const std::string& type : RequestTypeNames()) {
      m->emplace_back("service.exec_ms." + type, "ms");
      m->emplace_back("net.rtt_ms." + type, "ms");
      m->emplace_back("service.wait_ms." + type, "ms");
    }
    for (uint32_t code = 1; code <= 10; ++code) {
      m->emplace_back(
          std::string("service.failed.") +
              hyfd::service::ServiceErrorName(
                  static_cast<hyfd::service::ServiceError>(code)),
          "count");
    }
    // Trace bookkeeping (every workload).
    m->emplace_back("trace.total_s", "s");
    m->emplace_back("trace.accounting_s", "s");
    m->emplace_back("trace.uncovered_s", "s");
    m->emplace_back("trace.overhead_s", "s");
    m->emplace_back("trace.count_drift", "count");
    return m;
  }();
  return *metrics;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::string> CheckCountsAcrossRuns(
    const Options& options, const std::string& key,
    const std::map<std::string, uint64_t>& counts) {
  std::vector<std::string> drifted;
  if (options.counts_dir.empty()) return drifted;
  std::error_code ec;
  std::filesystem::create_directories(options.counts_dir, ec);
  const std::string path = options.counts_dir + "/" + key + ".txt";
  std::ifstream in(path);
  if (in) {
    std::map<std::string, uint64_t> earlier;
    std::string name;
    uint64_t value = 0;
    while (in >> name >> value) earlier[name] = value;
    for (const auto& [n, v] : counts) {
      auto it = earlier.find(n);
      if (it != earlier.end() && it->second != v) drifted.push_back(n);
    }
    return drifted;
  }
  std::ofstream out(path);
  for (const auto& [n, v] : counts) out << n << " " << v << "\n";
  return drifted;
}

hyfd::ColumnSpec WideSparseColumn(int c, size_t rows) {
  using hyfd::ColumnSpec;
  using hyfd::Distribution;
  switch (c % 6) {
    case 0:
      return ColumnSpec{.cardinality = 4 * std::max<uint64_t>(rows, 1),
                        .null_rate = 0.02};
    case 1:
      return ColumnSpec{.cardinality = std::max<uint64_t>(30, rows / 2),
                        .null_rate = 0.05};
    case 2:
      return ColumnSpec{.cardinality = 200,
                        .distribution = Distribution::kZipf,
                        .null_rate = 0.05};
    case 3:
      return ColumnSpec{.cardinality = 5000, .sources = {c - 2}};
    case 4:
      return ColumnSpec{.cardinality = std::max<uint64_t>(50, rows),
                        .null_rate = 0.1};
    default:
      return ColumnSpec{.cardinality = 25, .null_rate = 0.3};
  }
}

hyfd::ColumnSpec MixedColumn(int c, size_t rows) {
  using hyfd::ColumnSpec;
  using hyfd::Distribution;
  auto low = [](uint64_t k) { return ColumnSpec{.cardinality = k}; };
  switch (c % 6) {
    case 0:
      return c == 0 ? ColumnSpec{.cardinality = 4 * std::max<uint64_t>(rows, 1),
                                 .null_rate = 0.01}
                    : low(std::max<uint64_t>(8, rows / 50));
    case 1:
      return ColumnSpec{.cardinality = 200, .distribution = Distribution::kZipf};
    case 2:
      return ColumnSpec{.cardinality = 150, .sources = {c - 1}};
    case 3:
      return low(40 + static_cast<uint64_t>(c) % 60);
    case 4:
      return low(std::max<uint64_t>(10, rows / 20));
    default:
      return ColumnSpec{.cardinality = 100000, .sources = {c - 3, c - 1}};
  }
}

}  // namespace perfbench
