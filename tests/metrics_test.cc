#include "util/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hyfd {
namespace {

TEST(MetricsTest, CounterAddAndValue) {
  MetricsRegistry registry;
  Metric* c = registry.GetCounter("sampler.windows");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(c->name(), "sampler.windows");
  EXPECT_EQ(c->kind(), Metric::Kind::kCounter);
}

TEST(MetricsTest, GaugeSetAndSetMax) {
  MetricsRegistry registry;
  Metric* g = registry.GetGauge("memory.peak");
  g->Set(100);
  EXPECT_EQ(g->value(), 100u);
  g->SetMax(50);  // lower: no effect
  EXPECT_EQ(g->value(), 100u);
  g->SetMax(200);
  EXPECT_EQ(g->value(), 200u);
}

TEST(MetricsTest, StablePointersAcrossRegistrations) {
  MetricsRegistry registry;
  Metric* first = registry.GetCounter("a");
  // Force rebalancing-ish growth; node-based map must keep `first` valid.
  for (int i = 0; i < 1000; ++i) {
    registry.GetCounter("counter." + std::to_string(i))->Add(1);
  }
  Metric* again = registry.GetCounter("a");
  EXPECT_EQ(first, again);
  first->Add(7);
  EXPECT_EQ(again->value(), 7u);
  EXPECT_EQ(registry.size(), 1001u);
}

TEST(MetricsTest, ReregistrationKeepsFirstKind) {
  MetricsRegistry registry;
  Metric* c = registry.GetCounter("x");
  Metric* g = registry.GetGauge("x");
  EXPECT_EQ(c, g);
  EXPECT_EQ(g->kind(), Metric::Kind::kCounter);
}

TEST(MetricsTest, ExportSortedByName) {
  MetricsRegistry registry;
  registry.Add("zeta", 3);
  registry.Add("alpha", 1);
  registry.Add("mid.dle", 2);
  auto exported = registry.Export();
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].first, "alpha");
  EXPECT_EQ(exported[0].second, 1u);
  EXPECT_EQ(exported[1].first, "mid.dle");
  EXPECT_EQ(exported[2].first, "zeta");
}

TEST(MetricsTest, ResetZeroesValuesKeepsRegistrations) {
  MetricsRegistry registry;
  Metric* c = registry.GetCounter("c");
  c->Add(5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(registry.size(), 1u);
  c->Add(2);  // handed-out pointer still live
  EXPECT_EQ(registry.GetCounter("c")->value(), 2u);
}

TEST(MetricsTest, ConcurrentAddsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry, i] {
      // Half the threads register lazily to exercise concurrent
      // registration against concurrent updates.
      Metric* c = registry.GetCounter(i % 2 == 0 ? "shared" : "shared");
      for (int j = 0; j < kAddsPerThread; ++j) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared")->value(),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

}  // namespace
}  // namespace hyfd
