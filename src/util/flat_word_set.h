#ifndef HYFD_UTIL_FLAT_WORD_SET_H_
#define HYFD_UTIL_FLAT_WORD_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace hyfd {

/// A set of fixed-width keys, each `num_words()` 64-bit words: the Sampler's
/// negative cover, keyed by an agree set's raw AttributeSet words.
///
/// Open addressing with linear probing over a power-of-two number of slots,
/// at most half of them used. The keys sit back to back in one array and a
/// separate occupancy byte marks each used slot, so every word value is a
/// valid key — 0, and the all-ones word of a 64-attribute agree set, too.
/// Keys hash through a multiply-xorshift mix; FNV-1a (AttributeSet::Hash)
/// masked to its low bits would cluster one-word keys.
///
/// Insert-only. Contains() may run on many threads at once while nothing
/// inserts. The `kWords` template argument of the probes is the key width
/// when the caller knows it at compile time, 0 to read num_words().
class FlatWordSet {
 public:
  explicit FlatWordSet(size_t num_words) : num_words_(num_words) {}

  size_t num_words() const { return num_words_; }
  size_t size() const { return size_; }
  /// Number of slots: 0 before the first insert, then a power of two.
  size_t capacity() const { return used_.size(); }

  /// Bytes allocated for the slots' keys and their occupancy bytes.
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(uint64_t) + used_.capacity();
  }

  template <size_t kWords = 0>
  bool Contains(const uint64_t* key) const {
    return size_ != 0 && used_[Probe<kWords>(key)] != 0;
  }

  /// Adds `key`; returns false if the set already held it.
  template <size_t kWords = 0>
  bool Insert(const uint64_t* key) {
    if (capacity() == 0) Rehash(kMinCapacity);
    size_t slot = Probe<kWords>(key);
    if (used_[slot] != 0) return false;
    if (2 * (size_ + 1) > capacity()) {
      Rehash(2 * capacity());
      slot = Probe<kWords>(key);
    }
    used_[slot] = 1;
    std::copy_n(key, Width<kWords>(), keys_.data() + slot * Width<kWords>());
    ++size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  template <size_t kWords>
  size_t Width() const {
    HYFD_DCHECK(kWords == 0 || kWords == num_words_,
                "FlatWordSet: key width disagrees with the set's");
    return kWords != 0 ? kWords : num_words_;
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
    const size_t mask = capacity() - 1;
    size_t slot = Hash<kWords>(key) & mask;
    while (used_[slot] != 0 &&
           !std::equal(key, key + width, keys_.data() + slot * width)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint64_t> keys = std::move(keys_);
    std::vector<uint8_t> used = std::move(used_);
    keys_.assign(new_capacity * num_words_, 0);
    used_.assign(new_capacity, 0);
    for (size_t slot = 0; slot < used.size(); ++slot) {
      if (used[slot] == 0) continue;
      const uint64_t* key = keys.data() + slot * num_words_;
      const size_t to = Probe<0>(key);
      used_[to] = 1;
      std::copy_n(key, num_words_, keys_.data() + to * num_words_);
    }
  }

  size_t num_words_;
  size_t size_ = 0;
  std::vector<uint64_t> keys_;  ///< capacity() slots of num_words_ words
  std::vector<uint8_t> used_;   ///< 1 where a slot holds a key
};

}  // namespace hyfd

#endif  // HYFD_UTIL_FLAT_WORD_SET_H_
