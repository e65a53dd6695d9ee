#ifndef HYFD_UTIL_ATTRIBUTE_SET_H_
#define HYFD_UTIL_ATTRIBUTE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace hyfd {

/// A dynamic bitset over attribute indexes `[0, size())`.
///
/// AttributeSets represent left-hand sides of functional dependencies, agree
/// sets of record pairs (the paper's non-FD bitsets), and RHS candidate sets.
/// All lattice reasoning in the library (generalization / specialization
/// checks, cover computation, FDTree paths) operates on this type.
///
/// The set is backed by 64-bit words; all bit operations are word-parallel.
/// Sets over at most kInlineWords * 64 attributes keep their words inline, so
/// creating, copying and destroying them never allocates; wider sets own a
/// heap array. Two AttributeSets may only be combined if they were created
/// with the same size().
class AttributeSet {
 public:
  static constexpr int kNpos = -1;
  /// Words stored inside the object; wider sets move to the heap.
  static constexpr size_t kInlineWords = 2;

  AttributeSet() = default;

  /// Creates an empty set over `num_attributes` attributes.
  explicit AttributeSet(int num_attributes) : num_bits_(num_attributes) {
    HYFD_DCHECK(num_attributes >= 0, "AttributeSet: negative size");
    if (num_words() > kInlineWords) words_ = new uint64_t[num_words()]();
  }

  /// Creates a set over `num_attributes` attributes with `bits` set.
  AttributeSet(int num_attributes, std::initializer_list<int> bits)
      : AttributeSet(num_attributes) {
    for (int b : bits) Set(b);
  }

  AttributeSet(const AttributeSet& other) : num_bits_(other.num_bits_) {
    if (other.OnHeap()) words_ = new uint64_t[num_words()];
    std::copy_n(other.words_, num_words(), words_);
  }
  /// Moving steals a heap array; the moved-from set is left empty over 0
  /// attributes.
  AttributeSet(AttributeSet&& other) noexcept : num_bits_(other.num_bits_) {
    if (other.OnHeap()) {
      words_ = other.words_;
      other.words_ = other.inline_;
    } else {
      std::copy_n(other.inline_, kInlineWords, inline_);
    }
    other.num_bits_ = 0;
  }
  AttributeSet& operator=(const AttributeSet& other);
  AttributeSet& operator=(AttributeSet&& other) noexcept;
  ~AttributeSet() {
    if (OnHeap()) delete[] words_;
  }

  /// Returns a set over `num_attributes` attributes with all bits set.
  static AttributeSet Full(int num_attributes);

  /// Number of attributes this set ranges over (not the number of set bits).
  int size() const { return num_bits_; }

  bool Test(int i) const {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Test out of range");
    return (words_[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1u;
  }
  void Set(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Set out of range");
    words_[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  }
  void Reset(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Reset out of range");
    words_[static_cast<size_t>(i) >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Flip(int i) {
    HYFD_DCHECK(i >= 0 && i < num_bits_, "AttributeSet::Flip out of range");
    words_[static_cast<size_t>(i) >> 6] ^= uint64_t{1} << (i & 63);
  }

  /// Sets every bit in `[0, size())`.
  void SetAll();
  /// Clears every bit.
  void Clear();

  /// Number of backing 64-bit words, i.e. ceil(size() / 64).
  size_t num_words() const { return (static_cast<size_t>(num_bits_) + 63) / 64; }

  /// Word `w` of the backing storage; bit `i` of the set is bit `i % 64` of
  /// word `i / 64`.
  uint64_t Word(size_t w) const {
    HYFD_DCHECK(w < num_words(), "AttributeSet::Word out of range");
    return words_[w];
  }

  /// Overwrites word `w` wholesale. Bits at positions >= size() in the last
  /// word are masked off, preserving the invariant that unused tail bits are
  /// zero (Hash(), operator== and Count() rely on it).
  void SetWord(size_t w, uint64_t value) {
    HYFD_DCHECK(w < num_words(), "AttributeSet::SetWord out of range");
    if (w + 1 == num_words()) {
      const int tail = num_bits_ & 63;
      if (tail != 0) value &= (uint64_t{1} << tail) - 1;
    }
    words_[w] = value;
  }

  /// Raw pointer to the backing words, for bulk kernels. Callers must keep
  /// bits at positions >= size() zero; prefer SetWord, which masks the tail.
  uint64_t* MutableWords() { return words_; }
  const uint64_t* Words() const { return words_; }

  /// Number of set bits.
  int Count() const;
  bool Empty() const;

  /// Index of the lowest set bit, or kNpos if empty.
  int First() const;
  /// Index of the lowest set bit strictly greater than `i`, or kNpos.
  int NextAfter(int i) const;

  /// True iff every bit of *this is also set in `other`.
  bool IsSubsetOf(const AttributeSet& other) const;
  /// True iff *this is a subset of `other` and differs from it.
  bool IsProperSubsetOf(const AttributeSet& other) const;
  /// True iff the two sets share at least one bit.
  bool Intersects(const AttributeSet& other) const;

  AttributeSet& operator&=(const AttributeSet& other);
  AttributeSet& operator|=(const AttributeSet& other);
  AttributeSet& operator^=(const AttributeSet& other);
  /// Removes all bits of `other` from *this.
  AttributeSet& AndNot(const AttributeSet& other);

  friend AttributeSet operator&(AttributeSet a, const AttributeSet& b) {
    a &= b;
    return a;
  }
  friend AttributeSet operator|(AttributeSet a, const AttributeSet& b) {
    a |= b;
    return a;
  }
  friend AttributeSet operator^(AttributeSet a, const AttributeSet& b) {
    a ^= b;
    return a;
  }

  /// Returns a copy with bit `i` set.
  AttributeSet With(int i) const {
    AttributeSet r = *this;
    r.Set(i);
    return r;
  }
  /// Returns a copy with bit `i` cleared.
  AttributeSet Without(int i) const {
    AttributeSet r = *this;
    r.Reset(i);
    return r;
  }
  /// Returns the complement within `[0, size())`.
  AttributeSet Complement() const;

  /// Returns the indexes of all set bits in ascending order.
  std::vector<int> ToIndexes() const;

  friend bool operator==(const AttributeSet& a, const AttributeSet& b) {
    return a.num_bits_ == b.num_bits_ &&
           std::equal(a.words_, a.words_ + a.num_words(), b.words_);
  }
  friend bool operator!=(const AttributeSet& a, const AttributeSet& b) {
    return !(a == b);
  }
  /// Lexicographic order on the underlying words; used for canonical sorting.
  friend bool operator<(const AttributeSet& a, const AttributeSet& b) {
    if (a.num_bits_ != b.num_bits_) return a.num_bits_ < b.num_bits_;
    for (size_t w = a.num_words(); w-- > 0;) {
      if (a.words_[w] != b.words_[w]) return a.words_[w] < b.words_[w];
    }
    return false;
  }

  size_t Hash() const;

  /// Renders like "{0,2,5}" (attribute indexes) for debugging.
  std::string ToString() const;
  /// Renders using column names, e.g. "[city, zip]".
  std::string ToString(const std::vector<std::string>& names) const;

  /// Heap footprint in bytes (for the memory guardian / Table 3): 0 for an
  /// inline set, whose words are already counted in the enclosing
  /// sizeof(AttributeSet).
  size_t MemoryBytes() const {
    return OnHeap() ? num_words() * sizeof(uint64_t) : 0;
  }

 private:
  bool OnHeap() const { return words_ != inline_; }

  /// Points at `inline_` or at an owned heap array of num_words() words.
  uint64_t* words_ = inline_;
  int num_bits_ = 0;
  uint64_t inline_[kInlineWords] = {};
};

static_assert(sizeof(AttributeSet) == 32, "AttributeSet must stay 32 bytes");

/// Orders by size, then by operator< — the order UCC and key results are
/// returned in.
inline bool SmallerThenLess(const AttributeSet& a, const AttributeSet& b) {
  const int ca = a.Count();
  const int cb = b.Count();
  if (ca != cb) return ca < cb;
  return a < b;
}

/// Iterates the set bits of `s`, invoking `fn(int index)` for each.
template <typename Fn>
void ForEachBit(const AttributeSet& s, Fn&& fn) {
  for (int i = s.First(); i != AttributeSet::kNpos; i = s.NextAfter(i)) fn(i);
}

struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const { return s.Hash(); }
};

}  // namespace hyfd

namespace std {
template <>
struct hash<hyfd::AttributeSet> {
  size_t operator()(const hyfd::AttributeSet& s) const { return s.Hash(); }
};
}  // namespace std

#endif  // HYFD_UTIL_ATTRIBUTE_SET_H_
