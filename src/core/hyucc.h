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
  /// > 1 parallelizes both phases (the Sampler and the Validator) exactly as
  /// in HyFD; results and counters are bit-identical for any value.
  int num_threads = 1;
};

/// Hybrid discovery of all minimal unique column combinations (candidate
/// keys) — the sibling problem of FD discovery, solved with the same
/// architecture (Papenbrock & Naumann's HyUCC applies HyFD's hybrid strategy
/// to UCCs; this is our implementation of that idea on the shared substrate).
///
/// A UCC is an FD onto a key column: X is unique iff X → K, where K holds a
/// distinct value in every row. Discover() appends K to the preprocessed
/// data as an empty, unranked PLI, seeds the candidate tree with ∅ → K and
/// runs HyFD's own hybrid loop (RunHybridLoop: Sampler, Inductor, Validator)
/// on it; the LHSs of the resulting FDs are the minimal UCCs. A record pair
/// agreeing on Y proves every X ⊆ Y non-unique, which the Inductor's
/// specialization of X → K carries out unchanged.
class HyUcc {
 public:
  explicit HyUcc(HyUccConfig config = {}) : config_(config) {}

  /// Returns all minimal UCCs, sorted by size then lexicographically.
  std::vector<AttributeSet> Discover(const Relation& relation);

  /// Structured report of the last Discover() call: phase spans and
  /// counters (hyucc.*, sampler.*, inductor.* and validator.*). `columns`
  /// counts the relation's columns; K is not among them.
  const RunReport& report() const { return report_; }

 private:
  HyUccConfig config_;
  RunReport report_;
};

}  // namespace hyfd

#endif  // HYFD_CORE_HYUCC_H_
