// Self-test of the benchmark's own helpers: percentiles and the rule for
// which tail a sample count supports, open-loop arrivals, due-time latency,
// and span self times. Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;

  // Median and nearest-rank percentiles.
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even count");
  Expect(Near(Median({}), 0), "median of nothing");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 99), 99), "p99 of 1..100");
  Expect(Near(Percentile(hundred, 50), 50), "p50 of 1..100");
  Expect(Near(Percentile(hundred, 100), 100), "p100 is the maximum");
  Expect(Near(Percentile({5}, 99), 5), "percentile of one sample");

  // A tail needs ten samples beyond it: p99 needs 1000 samples.
  Expect(!PercentileSupported(999, 99), "999 samples do not support p99");
  Expect(PercentileSupported(1000, 99), "1000 samples support p99");
  Expect(PercentileSupported(200, 95) && !PercentileSupported(199, 95),
         "p95 needs 200 samples");
  Expect(Near(HighestSupportedPercentile(1000), 99), "highest tail of 1000");
  Expect(Near(HighestSupportedPercentile(150), 90), "highest tail of 150");
  Expect(Near(HighestSupportedPercentile(20), 50), "highest tail of 20");
  Expect(Near(HighestSupportedPercentile(19), 0), "19 samples support nothing");

  // Constant-rate arrivals: request i is due at i / rate, inside the window.
  const std::vector<double> arrivals = ConstantRateArrivals(32, 20);
  Expect(arrivals.size() == 640, "arrival count is rate x seconds");
  Expect(Near(arrivals[1], 1.0 / 32) && Near(arrivals.back(), 639.0 / 32),
         "request i is due at i / rate");

  // Stratified draws: each block holds the mix exactly; seeds reorder it.
  std::mt19937_64 a(7), b(7), c(8);
  const std::vector<int> draws = StratifiedDraw({12, 5, 2, 1}, 100, a);
  Expect(draws.size() == 100, "draw count");
  bool exact_blocks = true;
  for (size_t start = 0; start < draws.size(); start += 20) {
    std::vector<int> seen(4, 0);
    for (size_t i = start; i < start + 20; ++i) ++seen[static_cast<size_t>(draws[i])];
    exact_blocks &= seen == std::vector<int>({12, 5, 2, 1});
  }
  Expect(exact_blocks, "every block of 20 holds the mix exactly");
  Expect(draws == StratifiedDraw({12, 5, 2, 1}, 100, b), "draws repeat for a seed");
  Expect(draws != StratifiedDraw({12, 5, 2, 1}, 100, c), "draws differ across seeds");

  // Due-time latency charges the wait before sending; lateness is the
  // generator's own delay.
  RequestTimes times;
  times.due = Clock::now();
  times.issued = times.due + std::chrono::milliseconds(2);
  times.done = times.due + std::chrono::milliseconds(30);
  Expect(Near(times.LatencySeconds(), 0.030), "latency runs from the due time");
  Expect(Near(times.LatenessSeconds(), 0.002), "lateness runs from the due time");

  // Span self time: a parent's self time excludes its children.
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "root");
    {
      ScopedSpan child(&tracer, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const auto self = tracer.SelfSeconds();
  const double total = SecondsBetween(tracer.spans()[0].start, tracer.spans()[0].end);
  Expect(self.at("child") >= 0.019, "child self time covers its work");
  Expect(self.at("root") >= 0 && self.at("root") < 0.005, "root self time excludes the child");
  Expect(Near(self.at("root") + self.at("child"), total), "self times add up to the total");

  if (failures == 0) std::printf("perfbench selftest: OK\n");
  return failures == 0 ? 0 : 1;
}
