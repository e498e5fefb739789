//===-- spec/Linearization.cpp - LAT_hist linearization search -------------===//

#include "spec/Linearization.h"

#include <algorithm>
#include <deque>
#include <set>

using namespace compass;
using namespace compass::spec;
using namespace compass::graph;

namespace {

/// DFS state for the search over one object's history.
struct Search {
  const EventGraph &G;
  SeqSpec Spec;
  std::vector<EventId> Evs;            ///< The history, commit order.
  std::vector<uint64_t> LhbPredMask;   ///< Per event: mask of lhb preds.
  std::set<std::pair<uint64_t, std::deque<rmc::Value>>> Visited;
  std::vector<EventId> Order;
  uint64_t States = 0;
  uint64_t MaxStates = 0; ///< 0 = unlimited.
  bool Aborted = false;

  Search(const EventGraph &G, SeqSpec Spec) : G(G), Spec(Spec) {}

  bool isProduce(const Event &E) const {
    if (Spec == SeqSpec::Queue)
      return E.Kind == OpKind::Enq;
    return E.Kind == OpKind::Push; // Stack and WsDeque.
  }

  /// Whether event \p I can extend a prefix whose abstract state is
  /// \p State; applies the transition when legal. The state is a deque:
  /// front = FIFO head / steal end, back = LIFO top / owner end.
  bool step(unsigned I, std::deque<rmc::Value> &State) const {
    const Event &E = G.event(Evs[I]);
    if (isProduce(E)) {
      State.push_back(E.V1);
      return true;
    }
    auto popBack = [&] {
      if (State.empty() || State.back() != E.V1)
        return false;
      State.pop_back();
      return true;
    };
    auto popFront = [&] {
      if (State.empty() || State.front() != E.V1)
        return false;
      State.pop_front();
      return true;
    };
    switch (E.Kind) {
    case OpKind::DeqOk:
      return Spec == SeqSpec::Queue && popFront();
    case OpKind::PopOk:
      return Spec != SeqSpec::Queue && popBack();
    case OpKind::Steal:
      return Spec == SeqSpec::WsDeque && popFront();
    case OpKind::DeqEmpty:
      return Spec == SeqSpec::Queue && State.empty();
    case OpKind::PopEmpty:
      return Spec != SeqSpec::Queue && State.empty();
    case OpKind::StealEmpty:
      return Spec == SeqSpec::WsDeque && State.empty();
    default:
      return false; // Foreign kind: no linearization.
    }
  }

  bool dfs(uint64_t Chosen, const std::deque<rmc::Value> &State) {
    ++States;
    if (MaxStates && States > MaxStates) {
      Aborted = true;
      return false;
    }
    unsigned N = static_cast<unsigned>(Evs.size());
    if (Chosen == (N == 64 ? ~0ull : (1ull << N) - 1))
      return true;
    if (!Visited.insert({Chosen, State}).second)
      return false;
    for (unsigned I = 0; I != N; ++I) {
      if (Chosen & (1ull << I))
        continue;
      // Respect lhb: all lhb-predecessors already placed.
      if ((LhbPredMask[I] & Chosen) != LhbPredMask[I])
        continue;
      std::deque<rmc::Value> Next = State;
      if (!step(I, Next))
        continue;
      Order.push_back(Evs[I]);
      if (dfs(Chosen | (1ull << I), Next))
        return true;
      Order.pop_back();
    }
    return false;
  }
};

} // namespace

LinearizationResult spec::findLinearization(const EventGraph &G,
                                            unsigned ObjId, SeqSpec Spec,
                                            LinearizeLimits Limits) {
  Search S(G, Spec);
  S.MaxStates = Limits.MaxStates;
  S.Evs = G.objectEvents(ObjId);
  unsigned N = static_cast<unsigned>(S.Evs.size());
  LinearizationResult R;
  if (N > 64) {
    // The search state is a 64-bit mask; a longer history is reported as
    // an aborted search (verdict unknown, counted as a lin_abort) instead
    // of ending the whole run.
    R.Aborted = true;
    return R;
  }

  S.LhbPredMask.assign(N, 0);
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = 0; J != N; ++J)
      if (I != J && G.lhb(S.Evs[J], S.Evs[I]))
        S.LhbPredMask[I] |= 1ull << J;

  R.Found = S.dfs(0, {});
  R.Order = std::move(S.Order);
  R.StatesExplored = S.States;
  R.Aborted = S.Aborted;
  return R;
}
