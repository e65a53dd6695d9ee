#include "baselines/registry.h"

#include <stdexcept>

#include "baselines/depminer.h"
#include "baselines/dfd.h"
#include "baselines/fastfds.h"
#include "baselines/fdep.h"
#include "baselines/fdmine.h"
#include "baselines/fun.h"
#include "baselines/tane.h"
#include "core/hyfd.h"

namespace hyfd {
namespace {

FDSet RunHyFd(const Relation& relation, const AlgoOptions& options) {
  // HyFD has no cooperative deadline: the paper's point is that it finishes
  // where the others do not, and the harness budgets accordingly. It takes
  // no shared cache either (options.pli_cache is for the lattice
  // algorithms); use_pli_cache and the budget govern its owned cache.
  HyFdConfig config;
  config.null_semantics = options.null_semantics;
  config.memory_tracker = options.memory_tracker;
  config.enable_pli_cache = options.use_pli_cache;
  config.pli_cache_budget_bytes = options.pli_cache_budget_bytes;
  config.run_report = options.run_report;
  return DiscoverFds(relation, config);
}

}  // namespace

const std::vector<AlgoInfo>& AllAlgorithms() {
  static const auto* algorithms = new std::vector<AlgoInfo>{
      {"tane", DiscoverFdsTane, false, true},
      {"fun", DiscoverFdsFun, false, true},
      {"fd_mine", DiscoverFdsFdMine, false, true},
      {"dfd", DiscoverFdsDfd, false, true},
      {"depminer", DiscoverFdsDepMiner, true, false},
      {"fastfds", DiscoverFdsFastFds, true, false},
      {"fdep", DiscoverFdsFdep, true, false},
      {"hyfd", RunHyFd, false, false},
  };
  return *algorithms;
}

const AlgoInfo& FindAlgorithm(const std::string& name) {
  for (const AlgoInfo& algo : AllAlgorithms()) {
    if (algo.name == name) return algo;
  }
  throw std::out_of_range("unknown algorithm: " + name);
}

}  // namespace hyfd
