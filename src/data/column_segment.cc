#include "data/column_segment.h"

#include <algorithm>

#include "util/check.h"

namespace hyfd {
namespace {

uint64_t FoldBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FoldValue(uint64_t h, uint64_t v) { return FoldBytes(h, &v, sizeof(v)); }

/// FoldFingerprint()'s layout: `num_entries` dictionary entries, read
/// through `entry_at(i)`, then `codes`.
template <typename EntryAt>
uint64_t FoldContent(uint64_t h, size_t num_entries, EntryAt entry_at,
                     const std::vector<uint32_t>& codes) {
  h = FoldValue(h, num_entries);
  for (size_t i = 0; i < num_entries; ++i) {
    const std::string& entry = entry_at(i);
    h = FoldValue(h, entry.size());
    h = FoldBytes(h, entry.data(), entry.size());
  }
  h = FoldValue(h, codes.size());
  return FoldBytes(h, codes.data(), codes.size() * sizeof(uint32_t));
}

}  // namespace

const std::string& ColumnSegment::EmptyValue() {
  static const std::string* empty = new std::string();
  return *empty;
}

ColumnSegment ColumnSegment::FromParts(std::vector<std::string> dictionary,
                                       std::vector<uint32_t> codes) {
  HYFD_CHECK(dictionary.size() < kNullCode,
             "ColumnSegment: dictionary too large (the NULL code is reserved)");
  for (size_t i = 1; i < dictionary.size(); ++i) {
    HYFD_CHECK(dictionary[i - 1] < dictionary[i],
               "ColumnSegment: dictionary is not sorted-unique");
  }
  std::vector<uint8_t> referenced(dictionary.size(), 0);
  for (uint32_t code : codes) {
    if (code == kNullCode) continue;
    HYFD_CHECK(code < dictionary.size(),
               "ColumnSegment: code out of dictionary range");
    referenced[code] = 1;
  }
  HYFD_CHECK(std::find(referenced.begin(), referenced.end(), 0) ==
                 referenced.end(),
             "ColumnSegment: dictionary entry referenced by no code");
  // The encode index is built lazily on the first Encode() — a loaded
  // segment that is only ever read never pays for it.
  ColumnSegment segment;
  segment.dictionary_ = std::move(dictionary);
  segment.codes_ = std::move(codes);
  return segment;
}

void ColumnSegment::RebuildEncodeIndex() {
  encode_.clear();
  encode_.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    encode_.emplace(dictionary_[i], i);
  }
}

uint32_t ColumnSegment::Encode(const std::string& lexeme) {
  if (encode_.size() != dictionary_.size()) RebuildEncodeIndex();
  const auto code = static_cast<uint32_t>(dictionary_.size());
  const auto [it, inserted] = encode_.try_emplace(lexeme, code);
  if (!inserted) return it->second;
  HYFD_CHECK(code + 1 < kNullCode,
             "ColumnSegment: dictionary overflow (the NULL code is reserved)");
  // First-occurrence order: appending at the end breaks the canonical sorted
  // layout unless the new value happens to extend it.
  if (sorted_ && !dictionary_.empty() && !(dictionary_.back() < lexeme)) {
    sorted_ = false;
  }
  dictionary_.push_back(lexeme);
  return code;
}

void ColumnSegment::Append(const std::string& lexeme) {
  codes_.push_back(Encode(lexeme));
}

void ColumnSegment::AppendNull() { codes_.push_back(kNullCode); }

void ColumnSegment::Set(size_t row, const std::string& lexeme) {
  codes_[row] = Encode(lexeme);
  sorted_ = false;
}

void ColumnSegment::SetNull(size_t row) {
  codes_[row] = kNullCode;
  sorted_ = false;
}

void ColumnSegment::Resize(size_t n) {
  if (n < codes_.size()) sorted_ = false;  // truncation can orphan entries
  codes_.resize(n, kNullCode);
}

ColumnSegment ColumnSegment::Head(size_t n) const {
  ColumnSegment head = *this;
  head.Resize(std::min(n, codes_.size()));
  head.sorted_ = false;  // truncation may orphan dictionary entries
  return head;
}

size_t ColumnSegment::DistinctCount() const {
  std::vector<uint8_t> seen(dictionary_.size(), 0);
  size_t distinct = 0;
  for (uint32_t code : codes_) {
    if (code == kNullCode || seen[code] != 0) continue;
    seen[code] = 1;
    ++distinct;
  }
  return distinct;
}

ColumnSegment::NormalizationPlan ColumnSegment::PlanNormalization() const {
  NormalizationPlan plan;
  std::vector<uint8_t> referenced(dictionary_.size(), 0);
  for (uint32_t code : codes_) {
    if (code != kNullCode) referenced[code] = 1;
  }
  plan.slots.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    if (referenced[i] != 0) plan.slots.push_back(i);
  }
  std::sort(plan.slots.begin(), plan.slots.end(), [&](uint32_t a, uint32_t b) {
    return dictionary_[a] < dictionary_[b];
  });
  plan.old_to_new.assign(dictionary_.size(), kNullCode);
  for (uint32_t new_code = 0; new_code < plan.slots.size(); ++new_code) {
    plan.old_to_new[plan.slots[new_code]] = new_code;
  }
  return plan;
}

void ColumnSegment::Normalize() {
  const NormalizationPlan plan = PlanNormalization();
  std::vector<std::string> sorted_dictionary;
  sorted_dictionary.reserve(plan.slots.size());
  for (uint32_t old_code : plan.slots) {
    sorted_dictionary.push_back(std::move(dictionary_[old_code]));
  }
  dictionary_ = std::move(sorted_dictionary);
  for (uint32_t& code : codes_) {
    if (code != kNullCode) code = plan.old_to_new[code];
  }
  RebuildEncodeIndex();
  sorted_ = true;
}

uint64_t ColumnSegment::FoldFingerprint(uint64_t h) const {
  return FoldContent(
      h, dictionary_.size(),
      [&](size_t i) -> const std::string& { return dictionary_[i]; }, codes_);
}

void ColumnSegment::RemapLive(const std::vector<uint8_t>& live,
                              std::vector<uint32_t>* order,
                              std::vector<uint32_t>* codes) const {
  std::vector<uint32_t> remap(dictionary_.size(), kNullCode);
  for (size_t row = 0; row < codes_.size(); ++row) {
    if (live[row] == 0) continue;
    uint32_t code = codes_[row];
    if (code != kNullCode) {
      if (remap[code] == kNullCode) {
        remap[code] = static_cast<uint32_t>(order->size());
        order->push_back(code);
      }
      code = remap[code];
    }
    codes->push_back(code);
  }
}

ColumnSegment ColumnSegment::LiveRows(const std::vector<uint8_t>& live) const {
  std::vector<uint32_t> order;
  ColumnSegment out;
  RemapLive(live, &order, &out.codes_);
  out.dictionary_.reserve(order.size());
  for (uint32_t code : order) out.dictionary_.push_back(dictionary_[code]);
  // Appends keep the sorted claim exactly while each new entry extends the
  // dictionary; every entry is referenced by construction.
  out.sorted_ = std::is_sorted(out.dictionary_.begin(), out.dictionary_.end());
  return out;
}

uint64_t ColumnSegment::FoldLiveFingerprint(
    uint64_t h, const std::vector<uint8_t>& live) const {
  std::vector<uint32_t> order;
  std::vector<uint32_t> codes;
  RemapLive(live, &order, &codes);
  return FoldContent(
      h, order.size(),
      [&](size_t i) -> const std::string& { return dictionary_[order[i]]; },
      codes);
}

size_t ColumnSegment::MemoryBytes() const {
  size_t bytes = codes_.capacity() * sizeof(uint32_t);
  for (const std::string& entry : dictionary_) {
    bytes += sizeof(std::string) + entry.capacity();
  }
  // The encode index roughly doubles the dictionary footprint.
  bytes += encode_.size() * (sizeof(std::string) + sizeof(uint32_t) * 2);
  return bytes;
}

void ColumnSegment::CheckInvariants() const {
  HYFD_CHECK(dictionary_.size() < kNullCode,
             "ColumnSegment: dictionary size collides with the NULL code");
  HYFD_CHECK(encode_.empty() || encode_.size() == dictionary_.size(),
             "ColumnSegment: encode index size disagrees with the dictionary");
  if (!encode_.empty()) {
    for (uint32_t i = 0; i < dictionary_.size(); ++i) {
      auto it = encode_.find(dictionary_[i]);
      HYFD_CHECK(it != encode_.end() && it->second == i,
                 "ColumnSegment: encode index does not map entry to its code");
    }
  } else if (!sorted_) {
    // No index yet (FromParts and LiveRows build none) and no sorted claim:
    // check uniqueness directly.
    std::vector<const std::string*> entries;
    entries.reserve(dictionary_.size());
    for (const std::string& entry : dictionary_) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const std::string* a, const std::string* b) { return *a < *b; });
    for (size_t i = 1; i < entries.size(); ++i) {
      HYFD_CHECK(*entries[i - 1] != *entries[i],
                 "ColumnSegment: duplicate dictionary entry");
    }
  }
  for (uint32_t code : codes_) {
    HYFD_CHECK(code == kNullCode || code < dictionary_.size(),
               "ColumnSegment: code out of dictionary range");
  }
  if (sorted_) {
    for (size_t i = 1; i < dictionary_.size(); ++i) {
      HYFD_CHECK(dictionary_[i - 1] < dictionary_[i],
                 "ColumnSegment: sorted segment has an unsorted or duplicate "
                 "dictionary");
    }
    std::vector<uint8_t> referenced(dictionary_.size(), 0);
    for (uint32_t code : codes_) {
      if (code != kNullCode) referenced[code] = 1;
    }
    for (size_t i = 0; i < referenced.size(); ++i) {
      HYFD_CHECK(referenced[i] != 0,
                 "ColumnSegment: sorted segment has an unreferenced "
                 "dictionary entry");
    }
  }
}

}  // namespace hyfd
