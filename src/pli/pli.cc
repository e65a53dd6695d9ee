#include "pli/pli.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace hyfd {

Pli::Pli(std::vector<std::vector<RecordId>> clusters, size_t num_records)
    : clusters_(std::move(clusters)), num_records_(num_records) {
  // Drop singleton clusters defensively; callers normally pre-strip.
  clusters_.erase(std::remove_if(clusters_.begin(), clusters_.end(),
                                 [](const auto& c) { return c.size() < 2; }),
                  clusters_.end());
  size_ = 0;
  for (const auto& c : clusters_) size_ += c.size();
  num_live_ = num_records_;
  num_clusters_total_ = clusters_.size() + (num_records_ - size_);
  HYFD_AUDIT_ONLY(CheckInvariants());
}

void Pli::CheckInvariants() const {
  // One shared pass gives disjointness and the id range; the builders and
  // Intersect() emit record ids in ascending encounter order, so ordering is
  // part of the representation contract too.
  std::vector<uint8_t> seen(num_records_, 0);
  size_t covered = 0;
  size_t empties = 0;
  for (const auto& cluster : clusters_) {
    if (cluster.empty()) {
      // RemoveRows leaves emptied slots in place so slot indexes stay
      // stable; a fresh (non-tombstoned) PLI must never contain one.
      HYFD_CHECK(tombstoned_, "Pli: empty cluster in a non-tombstoned PLI");
      ++empties;
      continue;
    }
    HYFD_CHECK(cluster.size() >= 2,
               "Pli: singleton cluster survived stripping/demotion");
    RecordId prev = 0;
    for (size_t i = 0; i < cluster.size(); ++i) {
      RecordId r = cluster[i];
      HYFD_CHECK(static_cast<size_t>(r) < num_records_,
                 "Pli: record id outside [0, num_records)");
      HYFD_CHECK(i == 0 || r > prev,
                 "Pli: cluster record ids not strictly ascending");
      HYFD_CHECK(seen[r] == 0, "Pli: record id in two clusters");
      seen[r] = 1;
      prev = r;
    }
    covered += cluster.size();
  }
  HYFD_CHECK(size_ == covered,
             "Pli: cached non-unique record count drifted from clusters");
  HYFD_CHECK(num_empty_slots_ == empties,
             "Pli: cached empty-slot count drifted from clusters");
  HYFD_CHECK(tombstoned_ || num_live_ == num_records_,
             "Pli: live-record count drifted on a non-tombstoned PLI");
  HYFD_CHECK(size_ <= num_live_ && num_live_ <= num_records_,
             "Pli: live-record count outside [covered, num_records]");
  HYFD_CHECK(num_clusters_total_ ==
                 (clusters_.size() - num_empty_slots_) + (num_live_ - size_),
             "Pli: cached total cluster count drifted from clusters");
}

void Pli::AppendRows(size_t new_num_records,
                     const std::vector<std::pair<uint32_t, RecordId>>& appends,
                     std::vector<std::vector<RecordId>> new_clusters) {
  HYFD_CHECK(new_num_records >= num_records_,
             "Pli::AppendRows: record count may only grow");
  for (const auto& [cluster_idx, record] : appends) {
    HYFD_CHECK(cluster_idx < clusters_.size(),
               "Pli::AppendRows: append targets a nonexistent cluster");
    auto& cluster = clusters_[cluster_idx];
    HYFD_CHECK(!cluster.empty(),
               "Pli::AppendRows: append targets a tombstoned empty cluster");
    HYFD_CHECK(record > cluster.back(),
               "Pli::AppendRows: appended id must exceed the cluster tail");
    HYFD_CHECK(static_cast<size_t>(record) >= num_records_ &&
                   static_cast<size_t>(record) < new_num_records,
               "Pli::AppendRows: appended id outside the new-row range");
    cluster.push_back(record);
    ++size_;
  }
  for (auto& cluster : new_clusters) {
    HYFD_CHECK(cluster.size() >= 2,
               "Pli::AppendRows: new cluster smaller than two records");
    size_ += cluster.size();
    clusters_.push_back(std::move(cluster));
  }
  num_live_ += new_num_records - num_records_;
  num_records_ = new_num_records;
  // Total classes = live stripped clusters + implicit live singletons; the
  // cached counts are re-derivable, so re-derive instead of patching
  // incrementally.
  num_clusters_total_ =
      (clusters_.size() - num_empty_slots_) + (num_live_ - size_);
  HYFD_AUDIT_ONLY(CheckInvariants());
}

void Pli::RemoveRows(const std::vector<std::pair<uint32_t, RecordId>>& removals,
                     size_t num_dead_rows,
                     std::vector<std::pair<uint32_t, RecordId>>* demoted) {
  HYFD_CHECK(num_dead_rows >= removals.size(),
             "Pli::RemoveRows: more cluster removals than dead rows");
  HYFD_CHECK(num_dead_rows <= num_live_,
             "Pli::RemoveRows: more dead rows than live records");
  demoted->clear();
  // Group removals by slot so each touched cluster is swept exactly once.
  std::vector<std::pair<uint32_t, RecordId>> sorted(removals);
  std::sort(sorted.begin(), sorted.end());
  for (size_t begin = 0; begin < sorted.size();) {
    const uint32_t slot = sorted[begin].first;
    HYFD_CHECK(slot < clusters_.size(),
               "Pli::RemoveRows: removal names a nonexistent cluster");
    size_t end = begin;
    while (end < sorted.size() && sorted[end].first == slot) {
      HYFD_CHECK(end == begin || sorted[end].second != sorted[end - 1].second,
                 "Pli::RemoveRows: duplicate removal of one record");
      ++end;
    }
    auto& cluster = clusters_[slot];
    // One merge sweep: both the cluster and this slot's removal ids are
    // sorted ascending, so matching is linear and misses are detected.
    size_t write = 0;
    size_t k = begin;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (k < end && cluster[i] == sorted[k].second) {
        ++k;
      } else {
        cluster[write++] = cluster[i];
      }
    }
    HYFD_CHECK(k == end,
               "Pli::RemoveRows: removal record not in the stated cluster");
    size_ -= cluster.size() - write;
    cluster.resize(write);
    if (write == 1) {
      // Eager demotion: a lone survivor becomes an implicit singleton so
      // slots are always size 0 or ≥ 2 and the probing/refine kernels never
      // see degenerate clusters.
      demoted->emplace_back(slot, cluster[0]);
      cluster.clear();
      --size_;
    }
    if (cluster.empty()) ++num_empty_slots_;
    cluster.shrink_to_fit();
    begin = end;
  }
  num_live_ -= num_dead_rows;
  tombstoned_ = true;
  num_clusters_total_ =
      (clusters_.size() - num_empty_slots_) + (num_live_ - size_);
  HYFD_AUDIT_ONLY(CheckInvariants());
}

void Pli::CompactSlots(std::vector<int32_t>* remap) {
  remap->assign(clusters_.size(), -1);
  size_t write = 0;
  for (size_t read = 0; read < clusters_.size(); ++read) {
    if (clusters_[read].empty()) continue;
    (*remap)[read] = static_cast<int32_t>(write);
    if (write != read) clusters_[write] = std::move(clusters_[read]);
    ++write;
  }
  clusters_.resize(write);
  num_empty_slots_ = 0;
  // The partition is dense again; it stays tombstoned while rows are dead so
  // the live-aware counting (and relaxed audits) remain in force.
  if (num_live_ == num_records_) tombstoned_ = false;
  num_clusters_total_ = clusters_.size() + (num_live_ - size_);
  HYFD_AUDIT_ONLY(CheckInvariants());
}

std::vector<ClusterId> Pli::BuildProbingTable() const {
  std::vector<ClusterId> table(num_records_, kUniqueCluster);
  for (size_t c = 0; c < clusters_.size(); ++c) {
    for (RecordId r : clusters_[c]) table[r] = static_cast<ClusterId>(c);
  }
  return table;
}

Pli Pli::Intersect(const std::vector<ClusterId>& other_probing_table) const {
  std::vector<std::vector<RecordId>> result;
  // Partition each of our clusters by the other side's cluster id. Records
  // unique on the other side stay unique in the intersection.
  std::unordered_map<ClusterId, std::vector<RecordId>> partition;
  for (const auto& cluster : clusters_) {
    partition.clear();
    for (RecordId r : cluster) {
      ClusterId other = other_probing_table[r];
      if (other == kUniqueCluster) continue;
      partition[other].push_back(r);
    }
    for (auto& [_, records] : partition) {
      if (records.size() >= 2) result.push_back(std::move(records));
    }
  }
  return Pli(std::move(result), num_records_);
}

Pli Pli::Intersect(const Pli& other) const {
  return Intersect(other.BuildProbingTable());
}

bool Pli::Refines(const std::vector<ClusterId>& other_probing_table) const {
  for (const auto& cluster : clusters_) {
    if (cluster.empty()) continue;  // tombstoned slot
    ClusterId expected = other_probing_table[cluster[0]];
    if (expected == kUniqueCluster) return false;  // two records, unique RHS
    for (size_t i = 1; i < cluster.size(); ++i) {
      if (other_probing_table[cluster[i]] != expected) return false;
    }
  }
  return true;
}

size_t Pli::MemoryBytes() const {
  size_t bytes = clusters_.capacity() * sizeof(std::vector<RecordId>);
  for (const auto& c : clusters_) bytes += c.capacity() * sizeof(RecordId);
  return bytes;
}

}  // namespace hyfd
