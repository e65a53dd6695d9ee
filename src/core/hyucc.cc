#include "core/hyucc.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/hybrid_loop.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/validator.h"
#include "fd/fd_tree.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hyfd {

std::vector<AttributeSet> HyUcc::Discover(const Relation& relation) {
  report_ = RunReport{};
  Timer total_timer;
  MetricsRegistry metrics;
  Timer timer;
  PreprocessedData data = Preprocess(relation, config_.null_semantics);
  // X is unique iff X -> K, for a key column K that holds a distinct value
  // in every row: an empty PLI at index m, so every record carries
  // kUniqueCluster there. by_rank and rank keep covering the m real
  // attributes only, so the Sampler never windows K.
  const int m = data.num_attributes;
  const int key = m;
  data.plis.emplace_back(std::vector<std::vector<RecordId>>{},
                         data.num_records);
  data.records = CompressedRecords(data.plis, data.num_records);
  data.num_attributes = m + 1;
  report_.AddPhase("preprocess", timer.ElapsedSeconds());

  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  // Seeded with ∅ -> K ("∅ is unique"), so the Inductor adds no ∅ -> A and
  // every specialization keeps K as its only RHS.
  FDTree tree(m + 1);
  tree.AddFd(AttributeSet(m + 1), key);
  Sampler sampler(&data, config_.efficiency_threshold, config_.sampling_strategy,
                  pool.get(), &metrics);
  Inductor inductor(&tree, &metrics);
  Validator validator(&data, &tree, config_.efficiency_threshold, pool.get(),
                      /*cache=*/nullptr, &metrics);
  const HybridLoopResult loop = RunHybridLoop(
      [&](RecordPairs suggestions) { return sampler.Run(suggestions); },
      &inductor, &validator, &tree, &report_);

  std::vector<AttributeSet> uccs;
  for (const FD& fd : tree.ToFdSet()) {
    AttributeSet ucc(m);
    ForEachBit(fd.lhs, [&](int attr) { ucc.Set(attr); });
    uccs.push_back(std::move(ucc));
  }
  std::sort(uccs.begin(), uccs.end(), SmallerThenLess);

  metrics.Set("hyucc.phase_switches", static_cast<uint64_t>(loop.phase_switches));
  metrics.Set("hyucc.comparisons", sampler.total_comparisons());
  metrics.Set("hyucc.validations", validator.total_validations());
  FinishHybridReport("hyucc", "uccs", uccs.size(), data,
                     total_timer.ElapsedSeconds(), metrics, &report_);
  return uccs;
}

}  // namespace hyfd
