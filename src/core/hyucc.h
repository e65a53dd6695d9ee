#ifndef HYFD_CORE_HYUCC_H_
#define HYFD_CORE_HYUCC_H_

#include <vector>

#include "core/hybrid_loop.h"
#include "core/sampler.h"
#include "data/relation.h"
#include "pli/pli_builder.h"
#include "util/attribute_set.h"
#include "util/run_report.h"

namespace hyfd {

/// Configuration of a hybrid UCC discovery run (defaults mirror HyFD's).
struct HyUccConfig {
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;
  double efficiency_threshold = 0.01;
  SamplingStrategy sampling_strategy = SamplingStrategy::kClusterWindowing;
  /// > 1 parallelizes Phase 1 (the shared Sampler) exactly as in HyFD;
  /// results are bit-identical for any value.
  int num_threads = 1;
};

/// Run counters, mirroring HyFdStats. Induction time is spent specializing
/// the candidate tree against sampled agree sets (SpecializeUcc).
struct HyUccStats : HybridLoopStats {
  size_t num_uccs = 0;
  /// Lattice levels fully validated (deepest validated UCC size is
  /// levels_validated - 1, level 0 being the empty set).
  int levels_validated = 0;
};

/// Hybrid discovery of all minimal unique column combinations (candidate
/// keys) — the sibling problem of FD discovery, solved with the same
/// architecture (Papenbrock & Naumann's HyUCC applies HyFD's hybrid strategy
/// to UCCs; this is our implementation of that idea on the shared substrate).
///
/// The Sampler's agree sets double as the UCC negative cover: a record pair
/// agreeing on Y proves every X ⊆ Y non-unique. Phase 1 specializes the
/// candidate set against sampled agree sets; Phase 2 validates candidates
/// level-wise on the PLI-compressed records and feeds violating pairs back
/// to the Sampler.
class HyUcc {
 public:
  explicit HyUcc(HyUccConfig config = {}) : config_(config) {}

  /// Returns all minimal UCCs, sorted by size then lexicographically.
  std::vector<AttributeSet> Discover(const Relation& relation);

  const HyUccStats& stats() const { return stats_; }
  /// Structured report of the last Discover() call.
  const RunReport& report() const { return report_; }

 private:
  HyUccConfig config_;
  HyUccStats stats_;
  RunReport report_;
};

}  // namespace hyfd

#endif  // HYFD_CORE_HYUCC_H_
