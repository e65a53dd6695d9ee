#include "pli/compressed_records.h"

#include "util/check.h"

namespace hyfd {

CompressedRecords::CompressedRecords(const std::vector<Pli>& plis,
                                     size_t num_records)
    : values_(num_records * plis.size(), kUniqueCluster),
      num_records_(num_records),
      num_attributes_(static_cast<int>(plis.size())) {
  for (int attr = 0; attr < num_attributes_; ++attr) {
    const auto& clusters = plis[static_cast<size_t>(attr)].clusters();
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (RecordId r : clusters[c]) {
        values_[static_cast<size_t>(r) * num_attributes_ + attr] =
            static_cast<ClusterId>(c);
      }
    }
  }
}

void CompressedRecords::Append(size_t new_num_records) {
  HYFD_CHECK(new_num_records >= num_records_,
             "CompressedRecords::Append: record count may only grow");
  values_.resize(new_num_records * static_cast<size_t>(num_attributes_),
                 kUniqueCluster);
  num_records_ = new_num_records;
}

void CompressedRecords::RemoveRows(const std::vector<RecordId>& rows) {
  for (RecordId r : rows) {
    HYFD_CHECK(static_cast<size_t>(r) < num_records_,
               "CompressedRecords::RemoveRows: record id out of range");
    ClusterId* cells = &values_[static_cast<size_t>(r) * num_attributes_];
    for (int attr = 0; attr < num_attributes_; ++attr) {
      cells[attr] = kUniqueCluster;
    }
  }
  ++tombstone_epoch_;
}

uint64_t CompressedRecords::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(num_records_);
  mix(static_cast<uint64_t>(num_attributes_));
  mix(tombstone_epoch_);
  for (ClusterId c : values_) mix(static_cast<uint64_t>(static_cast<uint32_t>(c)));
  return h;
}

void CompressedRecords::CheckInvariants(const std::vector<Pli>& plis) const {
  HYFD_CHECK(plis.size() == static_cast<size_t>(num_attributes_),
             "CompressedRecords: PLI count disagrees with attribute count");
  for (const Pli& pli : plis) {
    HYFD_CHECK(pli.num_records() == num_records_,
               "CompressedRecords: PLI record count disagrees with matrix");
  }
  CompressedRecords fresh(plis, num_records_);
  HYFD_CHECK(fresh.values_ == values_,
             "CompressedRecords: matrix drifted from the per-attribute PLIs");
}

AttributeSet CompressedRecords::Match(RecordId a, RecordId b) const {
  AttributeSet agree(num_attributes_);
  AgreeWords(a, b, agree.MutableWords());
  return agree;
}

}  // namespace hyfd
