#include "core/sampler.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "util/check.h"

namespace hyfd {
namespace {

/// Window runs with fewer pairs than this stay serial: below it the pool's
/// submit/latch round-trip costs more than the comparisons themselves.
constexpr size_t kMinParallelPairs = 2048;

/// Pairs claimed per atomic fetch in a parallel window run.
constexpr size_t kPairGrain = 512;

/// A cluster's records with their packed sort keys.
using KeyedRecords = std::vector<std::pair<uint64_t, RecordId>>;

/// Clusters smaller than this take std::sort: a radix pass costs 256
/// buckets whatever the cluster size.
constexpr size_t kMinRadixSort = 256;

/// Sorts `keyed` by (key, record id). The records must arrive in ascending
/// id order, as a PLI cluster holds them. Larger clusters take a stable LSD
/// radix sort over only the key bytes that vary, which keeps equal keys in
/// id order. Low-cardinality neighbours make most keys equal; there
/// std::sort's compares mispredict, while a radix pass never branches on a
/// key (two passes for neighbours of fewer than 255 clusters each).
void SortByPackedKey(KeyedRecords* keyed, KeyedRecords* scratch) {
  if (keyed->size() < kMinRadixSort) {
    std::sort(keyed->begin(), keyed->end());
    return;
  }
  uint64_t varying = 0;
  for (const auto& entry : *keyed) varying |= entry.first ^ keyed->front().first;
  scratch->resize(keyed->size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<size_t, 257> start{};
    for (const auto& entry : *keyed) ++start[((entry.first >> shift) & 0xff) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const auto& entry : *keyed) {
      (*scratch)[start[(entry.first >> shift) & 0xff]++] = entry;
    }
    keyed->swap(*scratch);
  }
}

}  // namespace

Sampler::Sampler(const PreprocessedData* data, double efficiency_threshold,
                 SamplingStrategy strategy, ThreadPool* pool,
                 MetricsRegistry* metrics)
    : data_(data),
      strategy_(strategy),
      threshold_(efficiency_threshold),
      pool_(pool),
      metrics_(metrics),
      cover_(data->records.num_attributes()) {}

void Sampler::SortClustersOfAttribute(int attr) {
  const int m = static_cast<int>(data_->by_rank.size());
  // Sort each cluster of π_attr by the cluster ids of the neighbors in the
  // cluster-count ranking: the left neighbor has more (smaller) clusters —
  // a promising key — the right one breaks ties (paper Figure 3.1). Using
  // different neighbors per attribute gives each record a different
  // neighborhood in every sorting. Ties fall back to the record id, so the
  // sorting (and everything downstream) is deterministic.
  int p = data_->rank[static_cast<size_t>(attr)];
  int left = data_->by_rank[static_cast<size_t>((p + m - 1) % m)];
  int right = data_->by_rank[static_cast<size_t>((p + 1) % m)];
  // The sort keys are packed as ((left + 1) << 32 | (right + 1), id): the
  // +1 lifts kUniqueCluster (-1) to 0, so the unsigned order of the packed
  // key is the order of the two signed cluster ids.
  const CompressedRecords& records = data_->records;
  auto clusters = data_->plis[static_cast<size_t>(attr)].clusters();
  KeyedRecords keyed;
  KeyedRecords scratch;
  for (auto& cluster : clusters) {
    HYFD_DCHECK(std::is_sorted(cluster.begin(), cluster.end()),
                "Sampler: PLI cluster ids not ascending");
    keyed.clear();
    for (RecordId r : cluster) {
      const uint64_t l = static_cast<uint32_t>(records.Cluster(r, left) + 1);
      const uint64_t rr = static_cast<uint32_t>(records.Cluster(r, right) + 1);
      keyed.emplace_back(l << 32 | rr, r);
    }
    SortByPackedKey(&keyed, &scratch);
    for (size_t i = 0; i < cluster.size(); ++i) cluster[i] = keyed[i].second;
  }
  sorted_clusters_[static_cast<size_t>(attr)] = std::move(clusters);
}

void Sampler::InitializeClusterSortings() {
  const int m = static_cast<int>(data_->by_rank.size());
  sorted_clusters_.resize(static_cast<size_t>(m));
  efficiencies_.clear();
  if (pool_ != nullptr && m > 1) {
    // Attributes sort independently; cluster-count skew between them is why
    // this claims attributes dynamically instead of pre-chunking.
    pool_->ParallelForDynamic(static_cast<size_t>(m), 1, [this](size_t attr) {
      SortClustersOfAttribute(static_cast<int>(attr));
    });
  } else {
    for (int attr = 0; attr < m; ++attr) SortClustersOfAttribute(attr);
  }
}

void Sampler::RunWindow(Efficiency* eff,
                        std::vector<AttributeSet>* new_non_fds) {
  const auto& clusters = sorted_clusters_[static_cast<size_t>(eff->attribute)];
  const size_t w = eff->window;
  if (metrics_ != nullptr) metrics_->GetCounter("sampler.windows")->Add(1);

  // Pair space of this window run: cluster c contributes size-w+1 sliding
  // pairs when it is large enough. first_pair[] is the prefix sum over the
  // eligible clusters (plus a total sentinel), so workers can map a global
  // pair index back to (cluster, offset) — this balances a single huge
  // cluster across all workers, where partitioning by cluster could not.
  std::vector<uint32_t> eligible;
  std::vector<size_t> first_pair;
  size_t total_pairs = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < w) continue;
    eligible.push_back(static_cast<uint32_t>(c));
    first_pair.push_back(total_pairs);
    total_pairs += clusters[c].size() - w + 1;
  }
  if (total_pairs == 0) {
    eff->exhausted = true;  // window outgrew all clusters
    return;
  }

  // Pair i of a cluster: the window's first and last record.
  const auto window_pair = [w](const std::vector<RecordId>& cluster, size_t i) {
    return std::make_pair(cluster[i], cluster[i + w - 1]);
  };

  const CompressedRecords& records = data_->records;
  const size_t new_before = new_non_fds->size();
  total_comparisons_ += total_pairs;
  eff->comps += total_pairs;
  if (pool_ == nullptr || total_pairs < kMinParallelPairs) {
    for (uint32_t c : eligible) {
      const auto& cluster = clusters[c];
      cover_.Match(records, cluster.size() - w + 1,
                   [&](size_t i) { return window_pair(cluster, i); },
                   new_non_fds);
    }
    eff->results += new_non_fds->size() - new_before;
    return;
  }

  first_pair.push_back(total_pairs);

  // Parallel path: nothing writes the cover while the pool runs, so workers
  // probe it without locks. Each worker keeps its first miss on each agree
  // set — global pair index and pair — deduplicated in its own table. All
  // ranges come from one atomic counter, so a worker's ranges only go up:
  // its first miss on a set is its smallest index for it.
  using IndexedPair = std::pair<size_t, std::pair<RecordId, RecordId>>;
  struct Misses {
    NegativeCover seen;
    std::vector<IndexedPair> first;
  };
  std::vector<Misses> misses(pool_->num_threads(),
                             {NegativeCover(records.num_attributes()), {}});
  pool_->ParallelForRanges(
      total_pairs, kPairGrain, [&](size_t begin, size_t end) {
        const int wid = ThreadPool::CurrentWorkerIndex();
        HYFD_DCHECK(wid >= 0, "Sampler window task off the pool");
        Misses& mine = misses[static_cast<size_t>(wid)];
        HYFD_DCHECK(mine.first.empty() || mine.first.back().first < begin,
                    "Sampler: a worker's pair indices went down");
        size_t k = static_cast<size_t>(std::upper_bound(first_pair.begin(),
                                                        first_pair.end(),
                                                        begin) -
                                       first_pair.begin()) -
                   1;
        for (size_t p = begin; p < end; ++k) {
          const auto& cluster = clusters[eligible[k]];
          const size_t offset = p - first_pair[k];
          const size_t stop = std::min(end, first_pair[k + 1]);
          cover_.ForEachMiss(
              records, stop - p,
              [&](size_t j) { return window_pair(cluster, offset + j); },
              [&](const uint64_t* agree, size_t j, RecordId a, RecordId b) {
                if (mine.seen.Insert(agree, a, b)) {
                  mine.first.push_back({p + j, {a, b}});
                }
              });
          p = stop;
        }
      });

  // Replay on the calling thread: the union of the first misses, by
  // ascending index, through the serial pair loop. The globally first pair
  // of each agree set is some worker's first miss on it, so it reaches the
  // cover first: cover, witnesses and match order are the serial path's.
  // The replayed pairs were counted above, with the window's.
  std::vector<IndexedPair> replay;
  for (const Misses& worker : misses) {
    replay.insert(replay.end(), worker.first.begin(), worker.first.end());
  }
  std::sort(replay.begin(), replay.end());
  cover_.Match(records, replay.size(),
               [&](size_t i) { return replay[i].second; }, new_non_fds);
  eff->results += new_non_fds->size() - new_before;
}

void Sampler::RunProgressive(std::vector<AttributeSet>* new_non_fds) {
  while (true) {
    Efficiency* best = nullptr;
    for (auto& eff : efficiencies_) {
      if (eff.exhausted) continue;
      if (best == nullptr || eff.Eval() > best->Eval()) best = &eff;
    }
    if (best == nullptr || best->Eval() < threshold_) break;
    ++best->window;
    RunWindow(best, new_non_fds);
  }
}

void Sampler::RunRandom(std::vector<AttributeSet>* new_non_fds) {
  const size_t n = data_->num_records;
  if (n < 2) return;
  constexpr size_t kBatch = 1000;
  std::uniform_int_distribution<RecordId> pick(0, static_cast<RecordId>(n - 1));
  std::vector<std::pair<RecordId, RecordId>> batch;
  while (true) {
    size_t new_before = new_non_fds->size();
    batch.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      RecordId a = pick(rng_);
      RecordId b = pick(rng_);
      if (a != b) batch.emplace_back(a, b);
    }
    total_comparisons_ += batch.size();
    cover_.Match(data_->records, batch.size(),
                 [&](size_t k) { return batch[k]; }, new_non_fds);
    // Efficiency over the comparisons actually performed: a == b draws are
    // skipped above, and on small relations they are a sizable share of the
    // batch — dividing by kBatch would deflate the ratio and terminate
    // sampling early exactly where samples are cheapest.
    if (batch.empty()) break;
    double efficiency =
        static_cast<double>(new_non_fds->size() - new_before) /
        static_cast<double>(batch.size());
    if (efficiency < threshold_) break;
  }
}

std::vector<AttributeSet> Sampler::Run(
    const std::vector<std::pair<RecordId, RecordId>>& suggestions) {
  std::vector<AttributeSet> new_non_fds;
  const size_t comparisons_before = total_comparisons_;
  if (!initialized_) {
    initialized_ = true;
    if (strategy_ == SamplingStrategy::kClusterWindowing) {
      InitializeClusterSortings();
      // Initial efficiency measurement: window 2 over every ranked attribute.
      const int m = static_cast<int>(data_->by_rank.size());
      efficiencies_.resize(static_cast<size_t>(m));
      for (int attr = 0; attr < m; ++attr) {
        auto& eff = efficiencies_[static_cast<size_t>(attr)];
        eff.attribute = attr;
        eff.window = 2;
        RunWindow(&eff, &new_non_fds);
      }
    }
  } else {
    // Re-entry from the validation phase: relax the efficiency bar
    // (Algorithm 2 line 17) and replay the suggested violating pairs.
    threshold_ /= 2.0;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("sampler.phases")->Add(1);
    metrics_->GetCounter("sampler.suggestions_replayed")->Add(suggestions.size());
  }
  total_comparisons_ += suggestions.size();
  cover_.Match(data_->records, suggestions.size(),
               [&](size_t k) { return suggestions[k]; }, &new_non_fds);

  if (strategy_ == SamplingStrategy::kClusterWindowing) {
    RunProgressive(&new_non_fds);
  } else {
    RunRandom(&new_non_fds);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("sampler.comparisons")
        ->Add(total_comparisons_ - comparisons_before);
  }
  // Canonical batch order (NegativeCover::CanonicalLess): the Inductor
  // specializes longest-first anyway, and the batch reads the same however
  // its sets were found.
  std::sort(new_non_fds.begin(), new_non_fds.end(),
            NegativeCover::CanonicalLess);
  HYFD_AUDIT_ONLY(cover_.CheckInvariants(data_->records));
  return new_non_fds;
}

}  // namespace hyfd
