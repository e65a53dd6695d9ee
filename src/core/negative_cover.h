#ifndef HYFD_CORE_NEGATIVE_COVER_H_
#define HYFD_CORE_NEGATIVE_COVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pli/compressed_records.h"
#include "util/attribute_set.h"
#include "util/check.h"

namespace hyfd {

/// The witnessed negative cover: every non-FD agree set found so far (paper
/// §6), each with the record pair that first witnessed it. The Sampler fills
/// it; the incremental session takes it over and, on a delete, drops the
/// entries whose witness died (EAIFD's witnessed cover).
///
/// Open addressing with linear probing over a power-of-two number of slots,
/// at most half used. A slot is num_words() + 1 words in one array: the
/// agree set's raw AttributeSet words, then its witness pair packed into
/// one word, so a probe touches one slot. An empty slot's witness word is
/// all ones (no row id is ~0), so every key word value is valid. Keys hash
/// through a multiply-xorshift mix (FNV-1a's low bits would cluster
/// one-word keys). `kWords` is the key width when known at compile time, 0
/// to read num_words().
class NegativeCover {
 public:
  /// An agree set with its witnessing record pair.
  struct Entry {
    AttributeSet agree;
    RecordId a = 0;
    RecordId b = 0;
    bool operator==(const Entry&) const = default;
  };

  explicit NegativeCover(int num_attributes)
      : num_attributes_(num_attributes),
        num_words_(AttributeSet(num_attributes).num_words()) {}

  /// The canonical non-FD order: descending bit count, then lexicographic —
  /// the order the Inductor wants, whatever order the sets were found in.
  static bool CanonicalLess(const AttributeSet& a, const AttributeSet& b) {
    const int ca = a.Count();
    const int cb = b.Count();
    return ca != cb ? ca > cb : a < b;
  }

  size_t num_words() const { return num_words_; }
  size_t size() const { return size_; }
  /// Number of slots: 0 before the first insert, then a power of two.
  size_t capacity() const { return capacity_; }

  /// Bytes allocated for the slots' key and witness words. Moves only when
  /// the table rehashes.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

  template <size_t kWords = 0>
  bool Contains(const uint64_t* key) const {
    return size_ != 0 &&
           slots_[WitnessAt<kWords>(Probe<kWords>(key))] != kEmpty;
  }

  /// Adds `key` witnessed by (a, b); returns false, keeping the stored
  /// witness, if the cover already held it.
  bool Insert(const uint64_t* key, RecordId a, RecordId b) {
    if (Contains(key)) return false;
    if (2 * (size_ + 1) > capacity_) {
      Rebuild(std::max(kMinCapacity, 2 * capacity_),
              [](RecordId, RecordId) { return true; });
    }
    Place(Probe<0>(key), key, a, b);
    ++size_;
    return true;
  }

  /// The probe half of the pair loop: calls `on_miss(words, k, a, b)` for
  /// each of the `count` pairs `pair_at(k)` whose agree set (raw words,
  /// valid for the call) the cover lacks. Safe on many threads at once
  /// while nothing inserts.
  template <typename PairAt, typename OnMiss>
  void ForEachMiss(const CompressedRecords& records, size_t count,
                   PairAt&& pair_at, OnMiss&& on_miss) const {
    // One-word keys (at most 64 attributes) take the compile-time probes.
    if (num_words_ == 1) {
      Scan<1>(records, count, pair_at, on_miss);
    } else {
      Scan<0>(records, count, pair_at, on_miss);
    }
  }

  /// The pair loop: for each of the `count` pairs `pair_at(k)`, in order,
  /// the agree words (CompressedRecords::AgreeWords) and one probe; a set
  /// the cover lacks goes in at once, witnessed by its pair — so a witness
  /// is the first pair in match order — and is appended to `fresh`.
  template <typename PairAt>
  void Match(const CompressedRecords& records, size_t count, PairAt&& pair_at,
             std::vector<AttributeSet>* fresh) {
    ForEachMiss(records, count, pair_at,
                [&](const uint64_t* agree, size_t, RecordId a, RecordId b) {
                  Insert(agree, a, b);
                  fresh->push_back(ToAgreeSet(agree));
                });
  }

  /// Match() over a pair list; returns the fresh agree sets in match order.
  std::vector<AttributeSet> Match(
      const CompressedRecords& records,
      const std::vector<std::pair<RecordId, RecordId>>& pairs) {
    std::vector<AttributeSet> fresh;
    Match(records, pairs.size(), [&](size_t k) { return pairs[k]; }, &fresh);
    return fresh;
  }

  /// Keeps only the entries whose witness rows are both live (`live[r] !=
  /// 0`) and returns their agree sets in canonical order. The slot count
  /// stays.
  std::vector<AttributeSet> RetainLive(const std::vector<uint8_t>& live) {
    size_ = Rebuild(capacity_, [&](RecordId a, RecordId b) {
      return live[a] != 0 && live[b] != 0;
    });
    std::vector<AttributeSet> kept;
    kept.reserve(size_);
    for (Entry& entry : Entries()) kept.push_back(std::move(entry.agree));
    return kept;
  }

  /// Every entry, in the canonical order of its agree set.
  std::vector<Entry> Entries() const {
    std::vector<Entry> entries;
    entries.reserve(size_);
    ForEachEntry([&](const uint64_t* key, RecordId a, RecordId b) {
      entries.push_back({ToAgreeSet(key), a, b});
    });
    std::sort(entries.begin(), entries.end(),
              [](const Entry& x, const Entry& y) {
                return CanonicalLess(x.agree, y.agree);
              });
    return entries;
  }

  /// Deep audit: the occupied slots number size(), and each entry's witness
  /// pair matches on `records` to exactly its key words — and, given a
  /// `live` mask, both witness rows are live (a dead row agrees with
  /// nothing, so only this catches a dead witness of ∅). Throws
  /// ContractViolation on the first mismatch. O(size() × attributes).
  void CheckInvariants(const CompressedRecords& records,
                       const std::vector<uint8_t>* live = nullptr) const {
    HYFD_CHECK(records.num_attributes() == num_attributes_,
               "NegativeCover: records of another width");
    std::vector<uint64_t> agree(num_words_);
    size_t used = 0;
    ForEachEntry([&](const uint64_t* key, RecordId a, RecordId b) {
      ++used;
      HYFD_CHECK(a < records.num_records() && b < records.num_records(),
                 "NegativeCover: witness row out of range");
      HYFD_CHECK(live == nullptr || ((*live)[a] != 0 && (*live)[b] != 0),
                 "NegativeCover: dead witness");
      records.AgreeWords(a, b, agree.data());
      HYFD_CHECK(std::equal(agree.begin(), agree.end(), key),
                 "NegativeCover: witness pair does not match its agree set");
    });
    HYFD_CHECK(used == size_, "NegativeCover: occupied slots != size()");
  }

 private:
  /// The witness word of an empty slot.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 16;

  /// Calls `fn(key, a, b)` for every entry, in slot order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t at = num_words_; at < slots_.size(); at += num_words_ + 1) {
      if (slots_[at] == kEmpty) continue;
      fn(&slots_[at - num_words_], static_cast<RecordId>(slots_[at] >> 32),
         static_cast<RecordId>(slots_[at]));
    }
  }

  template <size_t kWords, typename PairAt, typename OnMiss>
  void Scan(const CompressedRecords& records, size_t count, PairAt&& pair_at,
            OnMiss&& on_miss) const {
    HYFD_DCHECK(records.num_attributes() == num_attributes_,
                "NegativeCover: records of another width");
    uint64_t word = 0;
    std::vector<uint64_t> wide(kWords == 0 ? num_words_ : 0);
    uint64_t* agree = kWords == 0 ? wide.data() : &word;
    for (size_t k = 0; k < count; ++k) {
      const auto [a, b] = pair_at(k);
      records.AgreeWords(a, b, agree);
      if (!Contains<kWords>(agree)) on_miss(agree, k, a, b);
    }
  }

  template <size_t kWords>
  size_t Width() const { return kWords != 0 ? kWords : num_words_; }

  /// The index in slots_ of slot `slot`'s witness word; its key words are
  /// the Width() words before it.
  template <size_t kWords>
  size_t WitnessAt(size_t slot) const {
    return slot * (Width<kWords>() + 1) + Width<kWords>();
  }

  template <size_t kWords>
  uint64_t Hash(const uint64_t* key) const {
    uint64_t h = 0;
    for (size_t w = 0; w < Width<kWords>(); ++w) {
      h ^= key[w];
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    return h;
  }

  /// The slot holding `key`, or the empty slot where it would go. Needs a
  /// non-empty table; the load bound guarantees an empty slot.
  template <size_t kWords>
  size_t Probe(const uint64_t* key) const {
    const size_t width = Width<kWords>();
    const size_t mask = capacity_ - 1;
    for (size_t slot = Hash<kWords>(key) & mask;; slot = (slot + 1) & mask) {
      const uint64_t* witness = &slots_[WitnessAt<kWords>(slot)];
      if (*witness == kEmpty || std::equal(key, key + width, witness - width)) {
        return slot;
      }
    }
  }

  void Place(size_t slot, const uint64_t* key, RecordId a, RecordId b) {
    const size_t witness = WitnessAt<0>(slot);
    std::copy_n(key, num_words_, &slots_[witness - num_words_]);
    slots_[witness] = uint64_t{a} << 32 | b;
  }

  /// Moves the entries whose witness (a, b) passes `keep(a, b)` into a
  /// fresh table of `new_capacity` slots; returns how many moved.
  template <typename Keep>
  size_t Rebuild(size_t new_capacity, Keep&& keep) {
    NegativeCover old = std::move(*this);
    slots_.assign(new_capacity * (num_words_ + 1), kEmpty);
    capacity_ = new_capacity;
    size_t moved = 0;
    old.ForEachEntry([&](const uint64_t* key, RecordId a, RecordId b) {
      if (!keep(a, b)) return;
      Place(Probe<0>(key), key, a, b);
      ++moved;
    });
    return moved;
  }

  AttributeSet ToAgreeSet(const uint64_t* words) const {
    AttributeSet agree(num_attributes_);
    std::copy_n(words, num_words_, agree.MutableWords());
    return agree;
  }

  int num_attributes_;
  size_t num_words_;
  size_t size_ = 0;
  size_t capacity_ = 0;
  std::vector<uint64_t> slots_;  ///< capacity_ slots of num_words_ + 1 words
};

}  // namespace hyfd

#endif  // HYFD_CORE_NEGATIVE_COVER_H_
