#ifndef HYFD_CORE_HYUCC_H_
#define HYFD_CORE_HYUCC_H_

#include <vector>

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

  /// Structured report of the last Discover() call: phase spans and
  /// counters (hyucc.* and the Sampler's sampler.*, validator.levels).
  const RunReport& report() const { return report_; }

 private:
  HyUccConfig config_;
  RunReport report_;
};

}  // namespace hyfd

#endif  // HYFD_CORE_HYUCC_H_
