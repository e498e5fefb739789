//===-- sim/DecisionTree.cpp - DFS frontier over decision sequences -------===//

#include "sim/DecisionTree.h"

#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::sim;

DecisionTree::DecisionTree(Prefix Seed)
    : Trace(std::move(Seed.Path)), SeedLen(Trace.size()) {
#ifndef NDEBUG
  for (const Decision &D : Trace) {
    assert(D.Chosen < D.Count && "seed decision out of range");
    assert(D.Limit == D.Chosen + 1 && "seed decisions must be pinned");
  }
#endif
}

unsigned DecisionTree::next(unsigned Count, const char *Tag) {
  return next(Count, Count, Tag);
}

unsigned DecisionTree::next(unsigned Count, unsigned Limit, const char *Tag,
                            unsigned First) {
  assert(Count >= 1 && "choice with no alternatives");
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");
  assert(First < Limit && "first alternative out of range");
  if (Pos < Trace.size()) {
    // Replaying the backtracked prefix; the program must be deterministic
    // given the decision sequence. Only the recorded arity is validated:
    // the node's Limit was fixed (from the restriction state, itself a pure
    // function of the prefix) when the node was created, and may since have
    // been lowered by split()-time donation.
    if (Trace[Pos].Count != Count)
      fatalError("nondeterministic replay: decision arity changed");
    return Trace[Pos++].Chosen;
  }
  Trace.push_back({First, Limit, Count, Tag});
  Open += Limit - First - 1;
  ++Pos;
  return First;
}

bool DecisionTree::advance() {
  assert(Pos == Trace.size() && "execution ended mid-replay");
  // Depth-first backtracking: advance the deepest decision that still has
  // an untried alternative this tree owns, discarding everything below it.
  // Seed decisions are pinned (Limit == Chosen + 1), so the loop never
  // advances past the seed prefix.
  // Popped decisions have no untried alternative left, so Open only loses
  // the one alternative taken here.
  while (Trace.size() > SeedLen) {
    Decision &D = Trace.back();
    if (D.Chosen + 1 < D.Limit) {
      ++D.Chosen;
      --Open;
      Pos = Trace.size();
      return true;
    }
    Trace.pop_back();
  }
  Pos = Trace.size();
  Exhausted = true;
  return false;
}

std::vector<unsigned> DecisionTree::decisions() const {
  std::vector<unsigned> Out;
  Out.reserve(Trace.size());
  for (const Decision &D : Trace)
    Out.push_back(D.Chosen);
  return Out;
}

std::vector<DecisionTree::Prefix> DecisionTree::frontierPrefixes() const {
  std::vector<Prefix> Out;
  if (Exhausted)
    return Out;
  // Valid between executions (Pos == Trace.size()) and on a fresh tree
  // that has not begun its first execution yet (Pos == 0, Trace == seed).
  assert((Pos == Trace.size() || Pos == 0) && "frontier snapshot mid-replay");
  auto PinnedPrefix = [this](size_t Len) {
    Prefix P;
    P.Path.assign(Trace.begin(), Trace.begin() + Len);
    for (Decision &Pd : P.Path)
      Pd.Limit = Pd.Chosen + 1;
    return P;
  };
  // One pinned prefix per untried alternative hanging off the current
  // path (shallowest first — the largest subtrees, mirroring split()).
  for (size_t I = SeedLen, E = Trace.size(); I != E; ++I) {
    const Decision &D = Trace[I];
    for (unsigned A = D.Chosen + 1; A < D.Limit; ++A) {
      Prefix P = PinnedPrefix(I + 1);
      P.Path.back().Chosen = A;
      P.Path.back().Limit = A + 1;
      Out.push_back(std::move(P));
    }
  }
  // The current path itself: between executions it is the next pending
  // decision sequence, and pinning every decision yields exactly the
  // subtree below it. (For a fresh tree this is the bare seed — i.e. the
  // whole subtree the tree was charged with.)
  Out.push_back(PinnedPrefix(Trace.size()));
  return Out;
}

std::vector<DecisionTree::Prefix> DecisionTree::split(size_t MaxDonations) {
  std::vector<Prefix> Out;
  if (Exhausted || MaxDonations == 0)
    return Out;
  // Find the shallowest open choice point: donating there hands off the
  // largest subtrees, which keeps the shared queue coarse-grained.
  for (size_t I = SeedLen, E = Trace.size(); I != E; ++I) {
    Decision &D = Trace[I];
    const unsigned Untried = D.Limit - D.Chosen - 1;
    if (Untried == 0)
      continue;
    unsigned Donate =
        static_cast<unsigned>(std::min<size_t>(Untried, MaxDonations));
    // Donate the *highest* alternatives so the donor's remaining range
    // [Chosen, Limit) stays contiguous.
    for (unsigned A = D.Limit - Donate; A != D.Limit; ++A) {
      Prefix P;
      P.Path.assign(Trace.begin(), Trace.begin() + I + 1);
      // Pin every decision of the donated prefix: the recipient owns
      // exactly the subtree below it.
      for (Decision &Pd : P.Path)
        Pd.Limit = Pd.Chosen + 1;
      P.Path.back().Chosen = A;
      P.Path.back().Limit = A + 1;
      Out.push_back(std::move(P));
    }
    D.Limit -= Donate;
    Open -= Donate;
    return Out;
  }
  return Out;
}
