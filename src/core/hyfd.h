#ifndef HYFD_CORE_HYFD_H_
#define HYFD_CORE_HYFD_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/guardian.h"
#include "core/hybrid_loop.h"
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
  /// Validator's refinement checks. Results and stats are bit-identical for
  /// any value.
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

/// Counters and timings of a completed run; the loop's share (phase
/// switches, Sampler comparisons, Validator checks, phase times) comes from
/// HybridLoopStats.
struct HyFdStats : HybridLoopStats {
  size_t non_fds = 0;           ///< distinct agree sets in the negative cover
  size_t num_fds = 0;           ///< minimal FDs in the result
  /// Lattice levels fully validated; the deepest validated LHS size is
  /// levels_validated - 1 (level 0 is the empty LHS).
  int levels_validated = 0;
  /// False iff the MemoryGuardian pruned the FDTree: the result is then a
  /// strict subset of the full answer (every FD whose minimal LHS exceeds
  /// `pruned_lhs_cap` is missing). THE flag to check before trusting or
  /// reusing a result (EAIFD-style incremental re-discovery, top-k budgets).
  bool complete = true;
  /// -1 = complete result; otherwise the Guardian capped LHS size here.
  int pruned_lhs_cap = -1;
  int guardian_prunes = 0;      ///< times the Guardian lowered the cap
  /// Over-budget Check() calls that found nothing left to prune (cap already
  /// at LHS size 1). The result is complete w.r.t. the cap, but the run
  /// exceeded its memory budget by `guardian_overrun_bytes`.
  int guardian_give_ups = 0;
  size_t guardian_overrun_bytes = 0;
  /// Machine-readable guardian outcome (kNone when the guardian never had to
  /// act). Mirrored into the run report as counter `guardian.reason_code`
  /// and rendered by GuardianReasonCode() in degradation messages, so a
  /// caller — in particular the service error path — never has to parse
  /// prose to learn why a result was degraded.
  GuardianReason guardian_reason = GuardianReason::kNone;
  /// Owned-cache activity attributable to this run (deltas of the cache's
  /// cumulative counters; zero with enable_pli_cache off).
  size_t pli_cache_hits = 0;
  size_t pli_cache_misses = 0;
  size_t pli_cache_evictions = 0;
};

/// The hybrid FD discovery algorithm (the paper's primary contribution).
///
/// Usage:
///   HyFd algo;                          // default = paper configuration
///   FDSet fds = algo.Discover(relation);
///   const HyFdStats& stats = algo.stats();
///
/// Discover() returns all minimal, non-trivial functional dependencies of
/// the relation (unless a memory cap forced pruning; see stats()).
class HyFd {
 public:
  explicit HyFd(HyFdConfig config = {}) : config_(config) {}

  FDSet Discover(const Relation& relation);

  const HyFdStats& stats() const { return stats_; }
  /// Structured report of the last Discover() call (phase spans, counters,
  /// guardian degradation, owned-cache activity, memory components).
  const RunReport& report() const { return report_; }
  const HyFdConfig& config() const { return config_; }

  /// Drops the owned PLI cache (e.g. before discovering on new data that
  /// could fingerprint-collide with the previous relation).
  void ResetPliCache();

 private:
  HyFdConfig config_;
  HyFdStats stats_;
  RunReport report_;
  /// Owned cache kept across Discover() calls; see HyFdConfig::enable_pli_cache.
  std::unique_ptr<PliCache> owned_cache_;
  uint64_t owned_cache_fingerprint_ = 0;
};

/// One-shot convenience wrapper.
FDSet DiscoverFds(const Relation& relation, HyFdConfig config = {});

}  // namespace hyfd

#endif  // HYFD_CORE_HYFD_H_
