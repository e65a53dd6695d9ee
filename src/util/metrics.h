#ifndef HYFD_UTIL_METRICS_H_
#define HYFD_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace hyfd {

/// One registered metric cell: a relaxed atomic counter or gauge. Pointers
/// handed out by MetricsRegistry stay valid for the registry's lifetime, so
/// hot paths register once and then touch a single atomic — no map lookup,
/// no lock.
class Metric {
 public:
  enum class Kind { kCounter, kGauge };

  Metric(std::string name, Kind kind) : name_(std::move(name)), kind_(kind) {}

  /// Counter accumulation. Relaxed: metric values are reconciled at
  /// run boundaries, never used for synchronization.
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Gauge semantics: last writer wins.
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Gauge that only ever rises (e.g. a peak watermark).
  void SetMax(uint64_t value) {
    uint64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < value &&
           !value_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }

 private:
  std::string name_;
  Kind kind_;
  std::atomic<uint64_t> value_{0};
};

/// A per-run registry of named counters and gauges.
///
/// Design goals (DESIGN.md §8): cheap enough for hot paths — registration
/// takes one mutex acquisition, every subsequent update is a single relaxed
/// atomic op on a stable `Metric*` — and safe when HyFD's thread pool is
/// active (updates are atomics; registration is serialized). One registry
/// lives per discovery run and is exported into that run's RunReport.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration: returns the stable cell for `name`, creating it with the
  /// given kind on first use. Re-registering an existing name returns the
  /// existing cell regardless of kind (first registration wins).
  Metric* GetCounter(std::string_view name) { return FindOrCreate(name, Metric::Kind::kCounter); }
  Metric* GetGauge(std::string_view name) { return FindOrCreate(name, Metric::Kind::kGauge); }

  /// One-shot conveniences for cold paths (pay the map lookup every call).
  void Add(std::string_view name, uint64_t delta = 1) { GetCounter(name)->Add(delta); }
  void Set(std::string_view name, uint64_t value) { GetGauge(name)->Set(value); }

  /// All metrics as (name, value), sorted by name — the RunReport's
  /// `counters` section.
  std::vector<std::pair<std::string, uint64_t>> Export() const;

  /// Zeroes every value; registrations (and handed-out pointers) survive.
  void Reset();

  size_t size() const;

 private:
  Metric* FindOrCreate(std::string_view name, Metric::Kind kind);

  mutable Mutex mu_;
  /// Node-based map: Metric cells never move, so raw pointers stay valid.
  /// Only the map is guarded; the Metric cells it hands out are themselves
  /// lock-free (relaxed atomics), which is what keeps updates off the mutex.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> metrics_
      HYFD_GUARDED_BY(mu_);
};

}  // namespace hyfd

#endif  // HYFD_UTIL_METRICS_H_
