//===-- support/IdSet.h - Dynamic bitset over small integer ids -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A grow-on-demand bitset keyed by dense small ids. Used pervasively for
/// *logical views*: the sets of library-event ids that happen-before a point
/// of execution (the paper's `logview`, Section 3.1). Join is bitwise-or and
/// the logical-view inclusion order is subset inclusion.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SUPPORT_IDSET_H
#define COMPASS_SUPPORT_IDSET_H

#include <cstdint>
#include <vector>

namespace compass {

/// A set of dense non-negative ids, stored as a bitset.
///
/// All mutating operations grow the backing storage on demand; trailing zero
/// words are semantically irrelevant (equality and subset tests ignore them).
class IdSet {
public:
  IdSet() = default;

  /// Inserts \p Id into the set.
  void insert(uint32_t Id) {
    std::size_t Word = Id / 64;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
    Words[Word] |= 1ull << (Id % 64);
  }

  /// Removes \p Id from the set if present.
  void erase(uint32_t Id) {
    std::size_t Word = Id / 64;
    if (Word < Words.size())
      Words[Word] &= ~(1ull << (Id % 64));
  }

  /// Returns true if \p Id is in the set.
  bool contains(uint32_t Id) const {
    std::size_t Word = Id / 64;
    return Word < Words.size() && (Words[Word] >> (Id % 64)) & 1;
  }

  /// Set union in place: this := this ∪ Other.
  void joinWith(const IdSet &Other) {
    if (Other.Words.size() > Words.size())
      Words.resize(Other.Words.size(), 0);
    for (std::size_t I = 0, E = Other.Words.size(); I != E; ++I)
      Words[I] |= Other.Words[I];
  }

  /// Returns true if this is a subset of \p Other.
  bool subsetOf(const IdSet &Other) const {
    for (std::size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Theirs = I < Other.Words.size() ? Other.Words[I] : 0;
      if (Words[I] & ~Theirs)
        return false;
    }
    return true;
  }

  /// Number of ids in the set.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  void clear() { Words.clear(); }

  /// Calls \p Fn for each id in the set, in increasing order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (std::size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = __builtin_ctzll(W);
        Fn(static_cast<uint32_t>(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// Appends an exact encoding of the set to \p Out: the number of words up
  /// to the last nonzero one, then those words. Equal sets encode equally
  /// whatever their backing capacity.
  void appendWords(std::vector<uint64_t> &Out) const {
    std::size_t N = Words.size();
    while (N && !Words[N - 1])
      --N;
    Out.push_back(N);
    Out.insert(Out.end(), Words.begin(), Words.begin() + N);
  }

  /// Materializes the set as a sorted vector of ids.
  std::vector<uint32_t> toVector() const {
    std::vector<uint32_t> Out;
    Out.reserve(count());
    forEach([&](uint32_t Id) { Out.push_back(Id); });
    return Out;
  }

  friend bool operator==(const IdSet &A, const IdSet &B) {
    std::size_t N = A.Words.size() > B.Words.size() ? A.Words.size()
                                               : B.Words.size();
    for (std::size_t I = 0; I != N; ++I) {
      uint64_t Wa = I < A.Words.size() ? A.Words[I] : 0;
      uint64_t Wb = I < B.Words.size() ? B.Words[I] : 0;
      if (Wa != Wb)
        return false;
    }
    return true;
  }

private:
  std::vector<uint64_t> Words;
};

} // namespace compass

#endif // COMPASS_SUPPORT_IDSET_H
