#ifndef HYFD_CORE_HYBRID_LOOP_H_
#define HYFD_CORE_HYBRID_LOOP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/guardian.h"
#include "core/inductor.h"
#include "core/sampler.h"
#include "core/validator.h"
#include "util/memory_tracker.h"
#include "util/run_report.h"

namespace hyfd {

/// Counters and timings every hybrid run shares (HyFdStats,
/// IncrementalBatchStats and HyUccStats extend it).
struct HybridLoopStats {
  /// Switches from Phase 2 (validation) back into Phase 1 (sampling). The
  /// paper observes three to eight on typical data (§3) — Figure 8 measures
  /// this number against the efficiency threshold.
  int phase_switches = 0;
  size_t comparisons = 0;  ///< record pairs matched in Phase 1
  size_t validations = 0;  ///< candidates checked in Phase 2
  double preprocess_seconds = 0;
  double sampling_seconds = 0;
  double induction_seconds = 0;  ///< candidate-tree updates, split from sampling
  double validation_seconds = 0;
};

/// Record pairs, as the Validator suggests them (paper: comparisonSuggestions).
using RecordPairs = std::vector<std::pair<RecordId, RecordId>>;

/// Phase 1 of one pass: turns the previous pass's suggestions into the new
/// non-FD agree sets the Inductor folds next.
using PhaseOne = std::function<std::vector<AttributeSet>(RecordPairs)>;

/// Memory hooks; only HyFd::Discover sets them, and then `sampler` too. After
/// every tree change the guardian prunes against the sampler's negative
/// cover plus `data_bytes`, and the tracker is charged the tree (and, after
/// induction, the negative cover).
struct LoopMemory {
  MemoryGuardian* guardian = nullptr;
  MemoryTracker* tracker = nullptr;
  const Sampler* sampler = nullptr;
  size_t data_bytes = 0;
};

struct HybridLoopResult {
  /// The final Validator pass; the sessions fold its suggestions into their
  /// witnessed cover.
  ValidatorResult last;
  size_t confirmed_removed = 0;  ///< by Inductor::Update, over all passes
};

/// The hybrid loop of paper Figure 2, the one place that alternates
/// Inductor::Update and Validator::Run. Each pass runs `phase_one` on the
/// previous pass's suggestions (`first_pairs` on the first pass), folds its
/// non-FDs into `tree` and validates, until the Validator finishes the
/// lattice. Adds the phase times and switches to `stats` and sets its
/// validations.
HybridLoopResult RunHybridLoop(const PhaseOne& phase_one, Inductor* inductor,
                               Validator* validator, FDTree* tree,
                               HybridLoopStats* stats,
                               const LoopMemory& memory = {},
                               RecordPairs first_pairs = {});

/// Fills the report fields HyFd, IncrementalHyFd and HyUcc share — header,
/// preprocess/sampling/induction/validation phases (after any phase already
/// added) and the merged registry. Call after every other field is set.
void FinishHybridReport(std::string algorithm, std::string result_kind,
                        size_t result_count, const PreprocessedData& data,
                        const HybridLoopStats& stats, double total_seconds,
                        const MetricsRegistry& metrics, RunReport* report);

}  // namespace hyfd

#endif  // HYFD_CORE_HYBRID_LOOP_H_
