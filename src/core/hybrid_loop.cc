#include "core/hybrid_loop.h"

#include "util/check.h"
#include "util/timer.h"

namespace hyfd {
namespace {

/// Guardian and tracker step after a tree change; a no-op without hooks.
void AccountTree(const LoopMemory& memory, FDTree* tree, bool charge_cover) {
  if (memory.guardian != nullptr) {
    memory.guardian->Check(
        tree, memory.sampler->NegativeCoverBytes() + memory.data_bytes);
  }
  if (memory.tracker == nullptr) return;
  if (charge_cover) {
    memory.tracker->SetComponent(MemoryTracker::kNegativeCover,
                                 memory.sampler->NegativeCoverBytes());
  }
  memory.tracker->SetComponent(MemoryTracker::kFdTree, tree->MemoryBytes());
}

}  // namespace

HybridLoopResult RunHybridLoop(const PhaseOne& phase_one, Inductor* inductor,
                               Validator* validator, FDTree* tree,
                               RunReport* report, const LoopMemory& memory,
                               RecordPairs first_pairs) {
  HybridLoopResult result;
  RecordPairs suggestions = std::move(first_pairs);
  Timer timer;
  while (true) {
    timer.Restart();
    std::vector<AttributeSet> new_non_fds = phase_one(std::move(suggestions));
    report->AddPhase("sampling", timer.ElapsedSeconds());
    timer.Restart();
    result.confirmed_removed += inductor->Update(std::move(new_non_fds));
    report->AddPhase("induction", timer.ElapsedSeconds());
    // Audit seam: the Inductor just rewrote the positive cover.
    HYFD_AUDIT_ONLY(tree->CheckInvariants());
    AccountTree(memory, tree, /*charge_cover=*/true);

    timer.Restart();
    result.last = validator->Run();
    report->AddPhase("validation", timer.ElapsedSeconds());
    // Audit seam: the Validator pruned invalid FDs and specialized them.
    HYFD_AUDIT_ONLY(tree->CheckInvariants());
    AccountTree(memory, tree, /*charge_cover=*/false);
    if (result.last.done) break;
    ++result.phase_switches;  // Phase 2 pausing and re-entering Phase 1
    suggestions = std::move(result.last.comparison_suggestions);
  }
  return result;
}

void FinishHybridReport(std::string algorithm, std::string result_kind,
                        size_t result_count, const PreprocessedData& data,
                        double total_seconds, const MetricsRegistry& metrics,
                        RunReport* report) {
  report->algorithm = std::move(algorithm);
  report->rows = data.num_records;
  report->columns = static_cast<int>(data.by_rank.size());
  report->result_kind = std::move(result_kind);
  report->result_count = result_count;
  report->total_seconds = total_seconds;
  report->MergeMetrics(metrics);
}

}  // namespace hyfd
