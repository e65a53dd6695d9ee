#include "pli/pli_cache.h"

#include <utility>

#include "util/check.h"

namespace hyfd {
namespace {

/// How deep into the LRU list Get() scans for the largest cached subset when
/// no immediate subset is present. Bounds the miss-path cost on huge caches;
/// anything past the scan horizon is cold enough that deriving from a
/// slightly smaller base is acceptable.
constexpr size_t kSubsetScanLimit = 256;

}  // namespace

PliCache::PliCache(std::vector<Pli> single_plis, size_t num_records,
                   Config config, NullSemantics nulls)
    : config_(config),
      nulls_(nulls),
      num_attributes_(static_cast<int>(single_plis.size())),
      num_records_(num_records) {
  singles_.reserve(single_plis.size());
  probing_.reserve(single_plis.size());
  for (Pli& pli : single_plis) {
    auto shared = std::make_shared<const Pli>(std::move(pli));
    probing_.push_back(shared->BuildProbingTable());
    singles_bytes_ += shared->MemoryBytes() +
                      probing_.back().capacity() * sizeof(ClusterId);
    singles_.push_back(std::move(shared));
  }
  WriterLock lock(mu_);
  ChargeTrackerLocked();
}

PliCache::PliCache(int num_attributes, size_t num_records, Config config,
                   NullSemantics nulls)
    : config_(config),
      nulls_(nulls),
      num_attributes_(num_attributes),
      num_records_(num_records) {}

PliCache PliCache::FromRelation(const Relation& relation, Config config,
                                NullSemantics nulls) {
  return PliCache(BuildAllColumnPlis(relation, nulls), relation.num_rows(),
                  config, nulls);
}

size_t PliCache::EntryBytes(const AttributeSet& key, const Pli& pli) {
  // Map node + list node + shared_ptr control block, approximately.
  constexpr size_t kOverhead = sizeof(Entry) + 6 * sizeof(void*);
  return key.MemoryBytes() + pli.MemoryBytes() + kOverhead;
}

std::shared_ptr<const Pli> PliCache::Get(const AttributeSet& attrs) {
  WriterLock lock(mu_);
  return GetLocked(attrs, nullptr, nullptr);
}

std::shared_ptr<const Pli> PliCache::GetWithBase(
    const AttributeSet& attrs, const AttributeSet& base_key,
    const std::shared_ptr<const Pli>& base) {
  WriterLock lock(mu_);
  return GetLocked(attrs, &base_key, &base);
}

std::shared_ptr<const Pli> PliCache::GetLocked(
    const AttributeSet& attrs, const AttributeSet* base_key,
    const std::shared_ptr<const Pli>* base) {
  const int count = attrs.Count();
  if (count == 0) return nullptr;
  if (count == 1 && !singles_.empty()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return singles_[static_cast<size_t>(attrs.First())];
  }

  if (auto it = index_.find(attrs); it != index_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
    return it->second->pli;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // --- Find the largest base partition to derive from. ---------------------
  AttributeSet best_key;
  std::shared_ptr<const Pli> best_pli;
  int best_count = 0;

  // Immediate subsets are the best possible cached base (count - 1 bits).
  for (int a = attrs.First(); a != AttributeSet::kNpos; a = attrs.NextAfter(a)) {
    auto it = index_.find(attrs.Without(a));
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      best_key = it->second->key;
      best_pli = it->second->pli;
      best_count = count - 1;
      break;
    }
  }
  // Otherwise scan the hottest part of the LRU list for the largest subset.
  if (best_pli == nullptr && count > 2) {
    size_t scanned = 0;
    for (auto it = lru_.begin(); it != lru_.end() && scanned < kSubsetScanLimit;
         ++it, ++scanned) {
      int c = it->key.Count();
      if (c > best_count && c < count && it->key.IsSubsetOf(attrs)) {
        best_key = it->key;
        best_pli = it->pli;
        best_count = c;
        if (best_count == count - 1) break;
      }
    }
  }
  // The caller-supplied base wins if it is larger than anything cached.
  if (base != nullptr && *base != nullptr && base_key->Count() > best_count &&
      base_key->IsSubsetOf(attrs)) {
    best_key = *base_key;
    best_pli = *base;
    best_count = base_key->Count();
  }
  // Last resort: a pinned single-column PLI.
  if (best_pli == nullptr) {
    if (singles_.empty()) return nullptr;  // singles-less cache, underivable
    int first = attrs.First();
    best_key = AttributeSet(attrs.size()).With(first);
    best_pli = singles_[static_cast<size_t>(first)];
    best_count = 1;
  }

  // --- Intersect in the missing attributes, caching intermediates. ---------
  if (probing_.empty()) return nullptr;  // cannot extend without singles
  AttributeSet key = best_key;
  std::shared_ptr<const Pli> pli = std::move(best_pli);
  AttributeSet missing = attrs;
  missing.AndNot(key);
  for (int a = missing.First(); a != AttributeSet::kNpos;
       a = missing.NextAfter(a)) {
    key.Set(a);
    auto derived = std::make_shared<const Pli>(
        pli->Intersect(probing_[static_cast<size_t>(a)]));
    derivations_.fetch_add(1, std::memory_order_relaxed);
    pli = InsertLocked(key, std::move(derived));
  }
  return pli;
}

std::shared_ptr<const Pli> PliCache::Probe(const AttributeSet& attrs) const {
  ReaderLock lock(mu_);
  if (attrs.Count() == 1 && !singles_.empty()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return singles_[static_cast<size_t>(attrs.First())];
  }
  auto it = index_.find(attrs);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->pli;
}

void PliCache::Put(const AttributeSet& attrs, Pli pli) {
  Put(attrs, std::make_shared<const Pli>(std::move(pli)));
}

void PliCache::Put(const AttributeSet& attrs, std::shared_ptr<const Pli> pli) {
  if (attrs.Count() == 0 || pli == nullptr) return;
  HYFD_CHECK(attrs.size() == num_attributes_,
             "PliCache::Put: key ranges over the wrong attribute count");
  HYFD_CHECK(pli->num_records() == num_records_,
             "PliCache::Put: partition built over a different record count");
  WriterLock lock(mu_);
  InsertLocked(attrs, std::move(pli));
}

std::shared_ptr<const Pli> PliCache::InsertLocked(
    const AttributeSet& attrs, std::shared_ptr<const Pli> pli) {
  if (!config_.enabled) return pli;  // pass-through: never store
  if (auto it = index_.find(attrs); it != index_.end()) {
    // Replace in place (external Put of an already-derived partition). The
    // charge is computed on the *stored* key: the caller's copy may carry a
    // different word capacity, and the audit re-derives from stored state.
    bytes_ -= it->second->bytes;
    it->second->pli = std::move(pli);
    it->second->bytes = EntryBytes(it->second->key, *it->second->pli);
    bytes_ += it->second->bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictLocked();
    return lru_.front().pli;
  }
  Entry entry;
  entry.key = attrs;
  entry.pli = std::move(pli);
  entry.bytes = EntryBytes(entry.key, *entry.pli);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_.emplace(attrs, lru_.begin());
  inserts_.fetch_add(1, std::memory_order_relaxed);
  EvictLocked();
  return lru_.front().pli;
}

void PliCache::EvictLocked() {
  if (config_.budget_bytes == 0) {
    ChargeTrackerLocked();
    return;
  }
  // Never evict the most recent entry: a budget smaller than one partition
  // degenerates to a one-entry cache instead of thrashing to empty.
  while (bytes_ > config_.budget_bytes && lru_.size() > 1) {
    Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  ChargeTrackerLocked();
  HYFD_AUDIT_ONLY(CheckInvariantsLocked());
}

void PliCache::ChargeTrackerLocked() const {
  if (config_.memory_tracker != nullptr) {
    config_.memory_tracker->SetComponent(MemoryTracker::kPlis,
                                         singles_bytes_ + bytes_);
  }
}

void PliCache::Clear() {
  WriterLock lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  ChargeTrackerLocked();
  HYFD_AUDIT_ONLY(CheckInvariantsLocked());
}

void PliCache::CheckInvariants() const {
  ReaderLock lock(mu_);
  CheckInvariantsLocked();
}

void PliCache::CheckInvariantsLocked() const {
  if (!singles_.empty()) {
    HYFD_CHECK(singles_.size() == static_cast<size_t>(num_attributes_),
               "PliCache: pinned single-column PLIs incomplete");
    HYFD_CHECK(probing_.size() == singles_.size(),
               "PliCache: probing tables out of step with pinned singles");
    for (size_t a = 0; a < singles_.size(); ++a) {
      HYFD_CHECK(singles_[a] != nullptr, "PliCache: missing pinned single");
      HYFD_CHECK(singles_[a]->num_records() == num_records_,
                 "PliCache: pinned single over a different record count");
      HYFD_CHECK(probing_[a].size() == num_records_,
                 "PliCache: probing table length != record count");
    }
  }
  HYFD_CHECK(index_.size() == lru_.size(),
             "PliCache: LRU list and index map are not a bijection");
  HYFD_CHECK(config_.enabled || lru_.empty(),
             "PliCache: pass-through cache stored an entry");
  size_t derived_bytes = 0;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    HYFD_CHECK(it->pli != nullptr, "PliCache: cached entry without partition");
    HYFD_CHECK(it->key.size() == num_attributes_,
               "PliCache: cached key ranges over the wrong attribute count");
    HYFD_CHECK(!it->key.Empty(), "PliCache: cached key for the empty set");
    HYFD_CHECK(it->pli->num_records() == num_records_,
               "PliCache: cached partition over a different record count");
    HYFD_CHECK(it->bytes == EntryBytes(it->key, *it->pli),
               "PliCache: entry byte charge not re-derivable from the entry");
    auto found = index_.find(it->key);
    HYFD_CHECK(found != index_.end() && found->second == it,
               "PliCache: LRU entry missing from (or misfiled in) the index");
    derived_bytes += it->bytes;
  }
  HYFD_CHECK(bytes_ == derived_bytes,
             "PliCache: byte-budget accounting drifted from the entries");
  HYFD_CHECK(!config_.enabled || config_.budget_bytes == 0 ||
                 bytes_ <= config_.budget_bytes || lru_.size() <= 1,
             "PliCache: over budget with more than one evictable entry");
}

PliCache::Counters PliCache::counters() const {
  ReaderLock lock(mu_);
  Counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.derivations = derivations_.load(std::memory_order_relaxed);
  c.inserts = inserts_.load(std::memory_order_relaxed);
  c.bytes = bytes_;
  c.entries = lru_.size();
  return c;
}

void PliCache::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  derivations_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
}

size_t PliCache::TotalBytes() const {
  ReaderLock lock(mu_);
  return singles_bytes_ + bytes_;
}

}  // namespace hyfd
