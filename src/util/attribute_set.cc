#include "util/attribute_set.h"

#include <bit>
#include <sstream>

namespace hyfd {

AttributeSet& AttributeSet::operator=(const AttributeSet& other) {
  if (this == &other) return *this;
  const size_t n = other.num_words();
  if (n > kInlineWords) {
    if (num_words() != n) {
      uint64_t* fresh = new uint64_t[n];
      if (OnHeap()) delete[] words_;
      words_ = fresh;
    }
  } else if (OnHeap()) {
    delete[] words_;
    words_ = inline_;
  }
  num_bits_ = other.num_bits_;
  std::copy_n(other.words_, n, words_);
  return *this;
}

AttributeSet& AttributeSet::operator=(AttributeSet&& other) noexcept {
  if (this == &other) return *this;
  if (OnHeap()) delete[] words_;
  if (other.OnHeap()) {
    words_ = other.words_;
    other.words_ = other.inline_;
  } else {
    words_ = inline_;
    std::copy_n(other.inline_, kInlineWords, inline_);
  }
  num_bits_ = other.num_bits_;
  other.num_bits_ = 0;
  return *this;
}

AttributeSet AttributeSet::Full(int num_attributes) {
  AttributeSet s(num_attributes);
  s.SetAll();
  return s;
}

void AttributeSet::SetAll() {
  const size_t n = num_words();
  std::fill_n(words_, n, ~uint64_t{0});
  // Clear the bits above num_bits_ in the last word.
  int tail = num_bits_ & 63;
  if (tail != 0) words_[n - 1] &= (uint64_t{1} << tail) - 1;
}

void AttributeSet::Clear() { std::fill_n(words_, num_words(), uint64_t{0}); }

int AttributeSet::Count() const {
  int c = 0;
  for (size_t i = 0; i < num_words(); ++i) c += std::popcount(words_[i]);
  return c;
}

bool AttributeSet::Empty() const {
  for (size_t i = 0; i < num_words(); ++i) {
    if (words_[i] != 0) return false;
  }
  return true;
}

int AttributeSet::First() const {
  for (size_t i = 0; i < num_words(); ++i) {
    if (words_[i] != 0) {
      return static_cast<int>(i * 64 + std::countr_zero(words_[i]));
    }
  }
  return kNpos;
}

int AttributeSet::NextAfter(int i) const {
  ++i;
  if (i >= num_bits_) return kNpos;
  size_t w = static_cast<size_t>(i) >> 6;
  uint64_t word = words_[w] >> (i & 63);
  if (word != 0) return i + std::countr_zero(word);
  for (++w; w < num_words(); ++w) {
    if (words_[w] != 0) {
      return static_cast<int>(w * 64 + std::countr_zero(words_[w]));
    }
  }
  return kNpos;
}

bool AttributeSet::IsSubsetOf(const AttributeSet& other) const {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool AttributeSet::IsProperSubsetOf(const AttributeSet& other) const {
  return IsSubsetOf(other) && *this != other;
}

bool AttributeSet::Intersects(const AttributeSet& other) const {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

AttributeSet& AttributeSet::operator&=(const AttributeSet& other) {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) words_[i] &= other.words_[i];
  return *this;
}

AttributeSet& AttributeSet::operator|=(const AttributeSet& other) {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) words_[i] |= other.words_[i];
  return *this;
}

AttributeSet& AttributeSet::operator^=(const AttributeSet& other) {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

AttributeSet& AttributeSet::AndNot(const AttributeSet& other) {
  HYFD_DCHECK(num_bits_ == other.num_bits_, "AttributeSet size mismatch");
  for (size_t i = 0; i < num_words(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

AttributeSet AttributeSet::Complement() const {
  AttributeSet r(num_bits_);
  r.SetAll();
  r.AndNot(*this);
  return r;
}

std::vector<int> AttributeSet::ToIndexes() const {
  std::vector<int> out;
  out.reserve(Count());
  ForEachBit(*this, [&](int i) { out.push_back(i); });
  return out;
}

size_t AttributeSet::Hash() const {
  // FNV-1a over the words; cheap and good enough for the non-FD hash set.
  size_t h = 1469598103934665603ull;
  for (size_t i = 0; i < num_words(); ++i) {
    h ^= words_[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string AttributeSet::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  ForEachBit(*this, [&](int i) {
    if (!first) os << ',';
    os << i;
    first = false;
  });
  os << '}';
  return os.str();
}

std::string AttributeSet::ToString(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << '[';
  bool first = true;
  ForEachBit(*this, [&](int i) {
    if (!first) os << ", ";
    os << names[static_cast<size_t>(i)];
    first = false;
  });
  os << ']';
  return os.str();
}

}  // namespace hyfd
