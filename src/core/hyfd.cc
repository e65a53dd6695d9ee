#include "core/hyfd.h"

#include <memory>
#include <string>
#include <utility>

#include "core/guardian.h"
#include "core/hybrid_loop.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/validator.h"
#include "fd/fd_tree.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/run_report.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hyfd {

void HyFd::ResetPliCache() {
  owned_cache_.reset();
  owned_cache_fingerprint_ = 0;
}

FDSet HyFd::Discover(const Relation& relation) {
  report_ = RunReport{};
  MemoryTracker* tracker = config_.memory_tracker;
  HYFD_AUDIT_ONLY(relation.CheckInvariants());

  Timer total_timer;
  MetricsRegistry metrics;

  Timer timer;
  PreprocessedData data = Preprocess(relation, config_.null_semantics);
  report_.AddPhase("preprocess", timer.ElapsedSeconds());
  if (tracker != nullptr) {
    tracker->SetComponent(MemoryTracker::kPlis, data.MemoryBytes());
  }

  // --- Owned PLI cache, kept warm across Discover() calls. -----------------
  const bool needs_thread_safety = config_.num_threads > 1;
  PliCache* cache = nullptr;
  if (config_.enable_pli_cache) {
    // Same relation + same null semantics → same PLIs → same fingerprint, so
    // the owned PLI cache can be kept warm across Discover() calls and is
    // safely dropped when the data changed. The fingerprint covers the
    // storage layer too (dictionaries, types, format version), not just the
    // cluster structure: a reload whose clusters coincide but whose values
    // differ must still invalidate. One O(n·m) pass — noise next to a single
    // validation level.
    uint64_t fingerprint = DataFingerprint(relation, data.records);
    if (owned_cache_ == nullptr ||
        owned_cache_fingerprint_ != fingerprint ||
        owned_cache_->num_attributes() != data.num_attributes ||
        (needs_thread_safety && !owned_cache_->config().thread_safe)) {
      PliCache::Config cache_config;
      cache_config.budget_bytes = config_.pli_cache_budget_bytes;
      cache_config.thread_safe = needs_thread_safety;
      owned_cache_ = std::make_unique<PliCache>(
          data.num_attributes, data.num_records, cache_config,
          config_.null_semantics);
      owned_cache_fingerprint_ = fingerprint;
    }
    cache = owned_cache_.get();
  }
  PliCache::Counters cache_before;
  if (cache != nullptr) cache_before = cache->counters();

  // One pool serves both phases (paper §10.4): the Sampler's cluster-pair
  // comparisons and the Validator's refinement checks. Each ParallelFor*
  // waits on its own latch, so sharing is safe.
  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  FDTree tree(data.num_attributes);
  Sampler sampler(&data, config_.efficiency_threshold, config_.sampling_strategy,
                  pool.get(), &metrics);
  Inductor inductor(&tree, &metrics);
  MemoryGuardian guardian(config_.memory_limit_bytes);
  Validator validator(&data, &tree, config_.efficiency_threshold, pool.get(),
                      cache, &metrics);

  // The hybrid loop (paper Figure 2). Phase 1 is the Sampler; with sampling
  // off (ablation) an empty batch starts from ∅ -> R, so the Validator alone
  // does the work.
  const LoopMemory memory{.guardian = &guardian,
                          .tracker = tracker,
                          .sampler = &sampler,
                          .data_bytes = data.MemoryBytes()};
  const HybridLoopResult loop = RunHybridLoop(
      [&](RecordPairs suggestions) {
        return config_.enable_sampling ? sampler.Run(suggestions)
                                       : std::vector<AttributeSet>{};
      },
      &inductor, &validator, &tree, &report_, memory);

  HYFD_AUDIT_ONLY(if (cache != nullptr) cache->CheckInvariants());
  if (cache != nullptr) {
    PliCache::Counters after = cache->counters();
    report_.pli_cache_hits = after.hits - cache_before.hits;
    report_.pli_cache_misses = after.misses - cache_before.misses;
    report_.pli_cache_evictions = after.evictions - cache_before.evictions;
  }
  metrics.Set("hyfd.phase_switches",
              static_cast<uint64_t>(loop.phase_switches));
  metrics.Set("hyfd.comparisons", sampler.total_comparisons());
  metrics.Set("hyfd.non_fds", sampler.num_non_fds());
  metrics.Set("hyfd.validations", validator.total_validations());

  // Guardian outcome: a pruned tree means FDs were dropped — the result is
  // a strict subset of the full answer and MUST be flagged as incomplete
  // (the silent-truncation bug this counter family fixes). The cap is
  // never below 1, so 0 means the guardian never pruned.
  const uint64_t pruned_lhs_cap =
      guardian.WasPruned() ? static_cast<uint64_t>(tree.max_lhs_size()) : 0;
  if (guardian.WasPruned()) {
    report_.MarkIncomplete(
        "memory guardian pruned FDs with LHS size > " +
        std::to_string(pruned_lhs_cap) + " (limit " +
        std::to_string(config_.memory_limit_bytes) + " bytes) [" +
        GuardianReasonCode(guardian.reason()) + "]");
  }
  // Always emitted (0 == kNone): a consumer can branch on the code without
  // first checking whether the guardian acted at all.
  metrics.Set("guardian.reason_code",
              static_cast<uint64_t>(guardian.reason()));
  metrics.Set("guardian.pruned_lhs_cap", pruned_lhs_cap);
  metrics.Set("guardian.prunes",
              static_cast<uint64_t>(guardian.times_pruned()));
  metrics.Set("guardian.give_ups", static_cast<uint64_t>(guardian.give_ups()));
  metrics.Set("guardian.overrun_bytes", guardian.overrun_bytes());

  FDSet result = tree.ToFdSet();
  if (tracker != nullptr) report_.SetMemory(*tracker);
  FinishHybridReport("hyfd", "fds", result.size(), data,
                     total_timer.ElapsedSeconds(), metrics, &report_);
  return result;
}

FDSet DiscoverFds(const Relation& relation, HyFdConfig config) {
  HyFd algo(config);
  return algo.Discover(relation);
}

}  // namespace hyfd
