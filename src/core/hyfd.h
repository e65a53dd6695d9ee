#ifndef HYFD_CORE_HYFD_H_
#define HYFD_CORE_HYFD_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/sampler.h"
#include "data/relation.h"
#include "fd/fd_set.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "util/memory_tracker.h"
#include "util/run_report.h"

namespace hyfd {

/// Tuning knobs of a HyFD run. The defaults reproduce the paper's setup:
/// 1% efficiency threshold for both phases (§10.5), null == null (§10.1),
/// cluster-windowing sampling, single thread, no memory cap.
struct HyFdConfig {
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;
  /// The algorithm's only real parameter (paper Figure 8): a phase is
  /// considered inefficient when its yield ratio crosses this value.
  double efficiency_threshold = 0.01;
  SamplingStrategy sampling_strategy = SamplingStrategy::kClusterWindowing;
  /// Ablation switch: false turns Phase 1 off entirely, so the Validator
  /// traverses the lattice from ∅ alone (TANE-like candidate growth with
  /// direct validation). bench_ablation quantifies what sampling buys.
  bool enable_sampling = true;
  /// FDTree memory budget for the Guardian; 0 disables pruning.
  size_t memory_limit_bytes = 0;
  /// > 1 parallelizes both hybrid phases on one shared pool (paper §10.4):
  /// the Sampler's cluster sortings and window runs as well as the
  /// Validator's refinement checks. Results and report counters are
  /// bit-identical for any value.
  int num_threads = 1;
  /// If set, the run charges its data structures here (Table 3 accounting).
  MemoryTracker* memory_tracker = nullptr;
  /// Build a HyFd-owned PLI cache so LHS partitions assembled by the
  /// Validator stay warm across repeated Discover() calls on the same
  /// relation. Within one call each LHS is validated once, so only a repeat
  /// call can hit. The owned cache is dropped automatically when Discover()
  /// sees different data (detected by DataFingerprint).
  bool enable_pli_cache = true;
  /// Byte budget of the owned cache (0 = unbounded).
  size_t pli_cache_budget_bytes = PliCache::kDefaultBudgetBytes;
};

/// The hybrid FD discovery algorithm (the paper's primary contribution).
///
/// Usage:
///   HyFd algo;                          // default = paper configuration
///   FDSet fds = algo.Discover(relation);
///   const RunReport& report = algo.report();
///
/// Discover() returns all minimal, non-trivial functional dependencies of
/// the relation, unless a memory cap forced pruning: then report().complete
/// is false and the result lacks every FD whose minimal LHS is longer than
/// the counter `guardian.pruned_lhs_cap`. THE flag to check before trusting
/// or reusing a result.
class HyFd {
 public:
  explicit HyFd(HyFdConfig config = {}) : config_(config) {}

  FDSet Discover(const Relation& relation);

  /// Structured report of the last Discover() call: phase spans, counters
  /// (hyfd.*, guardian.* and the components' sampler.*, inductor.*,
  /// validator.*), owned-cache activity and memory components.
  const RunReport& report() const { return report_; }
  const HyFdConfig& config() const { return config_; }

  /// Drops the owned PLI cache (e.g. before discovering on new data that
  /// could fingerprint-collide with the previous relation).
  void ResetPliCache();

 private:
  HyFdConfig config_;
  RunReport report_;
  /// Owned cache kept across Discover() calls; see HyFdConfig::enable_pli_cache.
  std::unique_ptr<PliCache> owned_cache_;
  uint64_t owned_cache_fingerprint_ = 0;
};

/// One-shot convenience wrapper.
FDSet DiscoverFds(const Relation& relation, HyFdConfig config = {});

}  // namespace hyfd

#endif  // HYFD_CORE_HYFD_H_
