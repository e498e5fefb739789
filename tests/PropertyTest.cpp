//===-- tests/PropertyTest.cpp - Property-based sweeps ----------------------===//
//
// Randomized property tests (parameterized over seeds) for the framework's
// algebraic cores: the view lattice, logical-view sets, machine invariants
// under random operation soup, the linearization search on generated
// histories with known answers, a second (plain recursive) linearization
// oracle cross-checking it on random event graphs, and event-graph
// invariants (logical-view monotonicity along so edges, commit-index
// totality) over exhaustively explored generated scenarios.
//
//===----------------------------------------------------------------------===//

#include "check/Harness.h"
#include "check/ScenarioGen.h"
#include "graph/EventGraph.h"
#include "rmc/Machine.h"
#include "sim/Explorer.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"
#include "spec/SpecMonitor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

using namespace compass;
using namespace compass::rmc;

namespace {

View randomView(Rng &R, unsigned Locs, unsigned MaxTs) {
  View V;
  for (Loc L = 0; L != Locs; ++L)
    if (R.chance(1, 2))
      V.raise(L, static_cast<Timestamp>(R.range(0, MaxTs)));
  return V;
}

IdSet randomSet(Rng &R, unsigned MaxId) {
  IdSet S;
  for (uint32_t I = 0; I != MaxId; ++I)
    if (R.chance(1, 3))
      S.insert(I);
  return S;
}

} // namespace

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, ViewJoinLatticeLaws) {
  Rng R(GetParam());
  for (int Round = 0; Round != 50; ++Round) {
    View A = randomView(R, 12, 20);
    View B = randomView(R, 12, 20);
    View C = randomView(R, 12, 20);

    // Commutativity.
    EXPECT_TRUE(join(A, B) == join(B, A));
    // Associativity.
    EXPECT_TRUE(join(join(A, B), C) == join(A, join(B, C)));
    // Idempotence.
    EXPECT_TRUE(join(A, A) == A);
    // The join is an upper bound.
    EXPECT_TRUE(A.includedIn(join(A, B)));
    EXPECT_TRUE(B.includedIn(join(A, B)));
    // It is the least one: any other upper bound includes it.
    View U = join(join(A, B), randomView(R, 12, 20));
    EXPECT_TRUE(join(A, B).includedIn(U));
    // Inclusion is antisymmetric up to equality.
    if (A.includedIn(B) && B.includedIn(A)) {
      EXPECT_TRUE(A == B);
    }
  }
}

TEST_P(SeededProperty, IdSetLatticeLaws) {
  Rng R(GetParam() + 1000);
  for (int Round = 0; Round != 50; ++Round) {
    IdSet A = randomSet(R, 150);
    IdSet B = randomSet(R, 150);

    IdSet AB = A;
    AB.joinWith(B);
    IdSet BA = B;
    BA.joinWith(A);
    EXPECT_TRUE(AB == BA);
    EXPECT_TRUE(A.subsetOf(AB));
    EXPECT_TRUE(B.subsetOf(AB));
    EXPECT_EQ(AB.count() + 0u,
              [&] {
                unsigned N = 0;
                for (uint32_t I = 0; I != 160; ++I)
                  N += A.contains(I) || B.contains(I);
                return N;
              }());

    // Insert/erase roundtrip on a fresh id.
    uint32_t Fresh = 200 + static_cast<uint32_t>(R.below(100));
    EXPECT_FALSE(A.contains(Fresh));
    A.insert(Fresh);
    EXPECT_TRUE(A.contains(Fresh));
    A.erase(Fresh);
    EXPECT_FALSE(A.contains(Fresh));
  }
}

namespace {

/// A ChoiceSource driving random machine operations.
class RandomChoice final : public ChoiceSource {
public:
  explicit RandomChoice(uint64_t Seed) : R(Seed) {}
  unsigned choose(unsigned Count, const char *) override {
    return static_cast<unsigned>(R.below(Count));
  }
  Rng R;
};

} // namespace

TEST_P(SeededProperty, MachineInvariantsUnderRandomSoup) {
  RandomChoice C(GetParam() + 7);
  Machine M(C);
  constexpr unsigned Threads = 3, Locs = 4;
  for (unsigned T = 0; T != Threads; ++T)
    M.addThread();
  Loc Base = M.alloc("soup", Locs);

  Rng R(GetParam() + 99);
  for (int Step = 0; Step != 400; ++Step) {
    unsigned T = static_cast<unsigned>(R.below(Threads));
    Loc L = Base + static_cast<Loc>(R.below(Locs));
    MemOrder Orders[] = {MemOrder::Relaxed, MemOrder::Acquire,
                         MemOrder::Release, MemOrder::AcqRel,
                         MemOrder::SeqCst};
    switch (R.below(5)) {
    case 0:
      M.load(T, L, R.chance(1, 2) ? MemOrder::Relaxed : MemOrder::Acquire);
      break;
    case 1:
      M.store(T, L, R.below(100),
              R.chance(1, 2) ? MemOrder::Relaxed : MemOrder::Release);
      break;
    case 2:
      M.cas(T, L, R.below(100), R.below(100), Orders[3]);
      break;
    case 3:
      M.fetchAdd(T, L, 1, Orders[static_cast<size_t>(R.below(5))]);
      break;
    case 4:
      M.fence(T, Orders[1 + R.below(4)]);
      break;
    }

    // Invariants: cur ⊑ acq per thread; histories dense; message views
    // self-inclusive for atomic writes.
    for (unsigned T2 = 0; T2 != Threads; ++T2) {
      EXPECT_TRUE(M.threadCur(T2).Phys.includedIn(M.threadAcq(T2).Phys))
          << "cur must be included in acq";
    }
    for (Loc L2 = Base; L2 != Base + Locs; ++L2) {
      const Cell &Cell2 = M.memory().cell(L2);
      for (size_t I = 0; I != Cell2.Len; ++I) {
        if (I > 0) { // Init message aside, writes know themselves.
          EXPECT_GE(Cell2.know(I).Phys.get(L2), 0u);
        }
      }
    }
  }
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST_P(SeededProperty, GeneratedQueueHistoriesLinearizable) {
  // Build a random *valid* sequential queue history as an event graph
  // (single logical thread, program-order logical views): the search must
  // find a witness. Then corrupt the last consume's value: it must not.
  Rng R(GetParam() + 31);
  graph::EventGraph G;
  std::deque<Value> State;
  std::vector<graph::EventId> Order;
  Value NextV = 1;
  IdSet SoFar;

  for (int Op = 0; Op != 12; ++Op) {
    graph::EventId Id = G.reserve();
    graph::Event E;
    E.ObjId = 0;
    E.Thread = 0;
    E.LogView = SoFar;
    E.LogView.insert(Id);
    if (State.empty() || R.chance(2, 3)) {
      if (R.chance(1, 4)) {
        E.Kind = graph::OpKind::DeqEmpty;
        E.V1 = graph::EmptyVal;
        if (!State.empty()) { // Only valid on empty state.
          G.retract(Id);
          continue;
        }
      } else {
        E.Kind = graph::OpKind::Enq;
        E.V1 = NextV++;
        State.push_back(E.V1);
      }
    } else {
      E.Kind = graph::OpKind::DeqOk;
      E.V1 = State.front();
      State.pop_front();
    }
    SoFar.insert(Id);
    G.commit(Id, std::move(E));
    Order.push_back(Id);
  }

  auto Res = spec::findLinearization(G, 0, spec::SeqSpec::Queue);
  EXPECT_TRUE(Res.Found) << "valid sequential history must linearize";
  EXPECT_EQ(Res.Order.size(), Order.size());

  // Corrupt: append a dequeue of a value that was never enqueued.
  graph::EventId Bad = G.reserve();
  graph::Event E;
  E.Kind = graph::OpKind::DeqOk;
  E.V1 = 99'999;
  E.ObjId = 0;
  E.LogView = SoFar;
  E.LogView.insert(Bad);
  G.commit(Bad, std::move(E));
  EXPECT_FALSE(spec::findLinearization(G, 0, spec::SeqSpec::Queue).Found);
}

TEST_P(SeededProperty, GeneratedDequeHistoriesLinearizable) {
  // Same for the work-stealing deque semantics: interleave pushes, owner
  // takes (back) and steals (front) against a model deque.
  Rng R(GetParam() + 77);
  graph::EventGraph G;
  std::deque<Value> State;
  Value NextV = 1;
  IdSet SoFar;

  for (int Op = 0; Op != 12; ++Op) {
    graph::EventId Id = G.reserve();
    graph::Event E;
    E.ObjId = 0;
    E.LogView = SoFar;
    E.LogView.insert(Id);
    unsigned Kind = static_cast<unsigned>(R.below(3));
    if (State.empty() || Kind == 0) {
      E.Kind = graph::OpKind::Push;
      E.V1 = NextV++;
      E.Thread = 0;
      State.push_back(E.V1);
    } else if (Kind == 1) {
      E.Kind = graph::OpKind::PopOk;
      E.V1 = State.back();
      E.Thread = 0;
      State.pop_back();
    } else {
      E.Kind = graph::OpKind::Steal;
      E.V1 = State.front();
      E.Thread = 1;
      State.pop_front();
    }
    SoFar.insert(Id);
    G.commit(Id, std::move(E));
  }

  auto Res = spec::findLinearization(G, 0, spec::SeqSpec::WsDeque);
  EXPECT_TRUE(Res.Found);
  auto Abs = spec::checkWsDequeAbsState(G, 0);
  EXPECT_TRUE(Abs.ok()) << Abs.str();
}

namespace {

/// One transition of the sequential specification \p Spec, written
/// independently of spec::findLinearization's: \p Items holds the
/// abstract state, oldest first (a queue's head and a deque's steal end at
/// the front, a stack's top and a deque's owner end at the back). False
/// when \p E cannot happen in this state.
bool applySeq(spec::SeqSpec Spec, const graph::Event &E,
              std::vector<Value> &Items) {
  const bool Queue = Spec == spec::SeqSpec::Queue;
  const bool Deque = Spec == spec::SeqSpec::WsDeque;
  switch (E.Kind) {
  case graph::OpKind::Enq:
  case graph::OpKind::Push:
    if (Queue != (E.Kind == graph::OpKind::Enq))
      return false;
    Items.push_back(E.V1);
    return true;
  case graph::OpKind::DeqOk:
  case graph::OpKind::Steal:
    if (!(E.Kind == graph::OpKind::DeqOk ? Queue : Deque) || Items.empty() ||
        Items.front() != E.V1)
      return false;
    Items.erase(Items.begin());
    return true;
  case graph::OpKind::PopOk:
    if (Queue || Items.empty() || Items.back() != E.V1)
      return false;
    Items.pop_back();
    return true;
  case graph::OpKind::DeqEmpty:
    return Queue && Items.empty();
  case graph::OpKind::PopEmpty:
    return !Queue && Items.empty();
  case graph::OpKind::StealEmpty:
    return Deque && Items.empty();
  default:
    return false;
  }
}

/// The second linearization oracle: a plain recursive search without
/// memoization, in the style of lincheck-cpp's
/// LinearizabilityCheckerRecursive. Slow (it may revisit a state once per
/// path to it) but simple enough to trust as a cross-check of the
/// memoized spec::findLinearization. Places, in every possible order, an
/// event whose lhb-predecessors are all placed and that the sequential
/// spec accepts next.
bool linearizeRecursive(const graph::EventGraph &G,
                        const std::vector<graph::EventId> &Evs,
                        spec::SeqSpec Spec, std::vector<bool> &Placed,
                        std::vector<Value> &Items,
                        std::vector<graph::EventId> &Order) {
  if (Order.size() == Evs.size())
    return true;
  for (size_t I = 0; I != Evs.size(); ++I) {
    if (Placed[I])
      continue;
    bool Minimal = true;
    for (size_t J = 0; J != Evs.size() && Minimal; ++J)
      Minimal = Placed[J] || J == I || !G.lhb(Evs[J], Evs[I]);
    if (!Minimal)
      continue;
    const std::vector<Value> Saved = Items;
    if (applySeq(Spec, G.event(Evs[I]), Items)) {
      Placed[I] = true;
      Order.push_back(Evs[I]);
      if (linearizeRecursive(G, Evs, Spec, Placed, Items, Order))
        return true;
      Order.pop_back();
      Placed[I] = false;
    }
    Items = Saved;
  }
  return false;
}

bool linearizeRecursive(const graph::EventGraph &G, unsigned Obj,
                        spec::SeqSpec Spec,
                        std::vector<graph::EventId> &Order) {
  const std::vector<graph::EventId> Evs = G.objectEvents(Obj);
  std::vector<bool> Placed(Evs.size(), false);
  std::vector<Value> Items;
  Order.clear();
  return linearizeRecursive(G, Evs, Spec, Placed, Items, Order);
}

/// True iff \p Order is a linearization of object \p Obj's history: a
/// permutation of its events that respects lhb and that the sequential
/// spec accepts from the empty state.
bool isLinearization(const graph::EventGraph &G, unsigned Obj,
                     spec::SeqSpec Spec,
                     const std::vector<graph::EventId> &Order) {
  std::vector<graph::EventId> Evs = G.objectEvents(Obj), Sorted = Order;
  std::sort(Evs.begin(), Evs.end());
  std::sort(Sorted.begin(), Sorted.end());
  if (Evs != Sorted)
    return false;
  for (size_t I = 0; I != Order.size(); ++I)
    for (size_t J = I + 1; J != Order.size(); ++J)
      if (G.lhb(Order[J], Order[I]))
        return false;
  std::vector<Value> Items;
  for (graph::EventId Id : Order)
    if (!applySeq(Spec, G.event(Id), Items))
      return false;
  return true;
}

/// A random history of one object under \p Spec, 3 to 8 events over 3
/// threads. It follows a model run of the spec, except that a consume
/// sometimes takes a wrong value and an empty operation sometimes occurs
/// on a non-empty state, so some histories linearize and some do not.
/// Each event's logical view holds its thread's previous event and random
/// earlier events, with their views: lhb is a random partial order that
/// commit order extends.
graph::EventGraph randomHistory(Rng &R, spec::SeqSpec Spec) {
  using graph::OpKind;
  const bool Queue = Spec == spec::SeqSpec::Queue;
  const bool Deque = Spec == spec::SeqSpec::WsDeque;
  graph::EventGraph G;
  std::vector<Value> Items;
  std::vector<graph::EventId> Ids;
  std::vector<int> LastOfThread(3, -1);
  Value NextV = 1;
  const unsigned N = 3 + static_cast<unsigned>(R.below(6));
  for (unsigned K = 0; K != N; ++K) {
    graph::Event E;
    E.ObjId = 0;
    E.Thread = static_cast<unsigned>(R.below(3));
    const bool Empty = R.chance(1, 6);
    if (Empty) {
      E.Kind = Queue ? OpKind::DeqEmpty
                     : (Deque && R.chance(1, 2) ? OpKind::StealEmpty
                                                : OpKind::PopEmpty);
      E.V1 = graph::EmptyVal;
    } else if (Items.empty() || R.chance(1, 2)) {
      E.Kind = Queue ? OpKind::Enq : OpKind::Push;
      E.V1 = NextV++;
    } else {
      const bool Front = Queue || (Deque && R.chance(1, 2));
      E.Kind = Queue ? OpKind::DeqOk
                     : (Front ? OpKind::Steal : OpKind::PopOk);
      E.V1 = R.chance(1, 4) ? 1 + R.below(NextV) // maybe wrong
                            : (Front ? Items.front() : Items.back());
    }
    std::vector<Value> Next = Items;
    if (applySeq(Spec, E, Next))
      Items = std::move(Next);

    const graph::EventId Id = G.reserve();
    E.LogView.insert(Id);
    for (size_t J = 0; J != Ids.size(); ++J)
      if (static_cast<int>(J) == LastOfThread[E.Thread] || R.chance(1, 3)) {
        E.LogView.insert(Ids[J]);
        E.LogView.joinWith(G.event(Ids[J]).LogView);
      }
    LastOfThread[E.Thread] = static_cast<int>(Ids.size());
    G.commit(Id, std::move(E));
    Ids.push_back(Id);
  }
  return G;
}

} // namespace

TEST_P(SeededProperty, RecursiveOracleAgreesWithMemoizedSearch) {
  Rng R(GetParam() + 131);
  for (spec::SeqSpec Spec :
       {spec::SeqSpec::Stack, spec::SeqSpec::Queue, spec::SeqSpec::WsDeque}) {
    unsigned Found = 0, NotFound = 0;
    for (int Round = 0; Round != 60; ++Round) {
      const graph::EventGraph G = randomHistory(R, Spec);
      const spec::LinearizationResult Memo =
          spec::findLinearization(G, 0, Spec);
      std::vector<graph::EventId> Order;
      const bool Rec = linearizeRecursive(G, 0, Spec, Order);
      ASSERT_FALSE(Memo.Aborted);
      ASSERT_EQ(Memo.Found, Rec) << G.str();
      if (Rec) {
        EXPECT_TRUE(isLinearization(G, 0, Spec, Order)) << G.str();
        EXPECT_TRUE(isLinearization(G, 0, Spec, Memo.Order)) << G.str();
      }
      ++(Rec ? Found : NotFound);
    }
    // Both verdicts must occur for the agreement to mean anything.
    EXPECT_GT(Found, 0u) << static_cast<int>(Spec);
    EXPECT_GT(NotFound, 0u) << static_cast<int>(Spec);
  }
}

namespace {

/// Applies each op of one scenario thread (results discarded — these
/// sweeps only care about the committed event graph).
sim::Task<void> applyOps(check::ContainerAdapter &A,
                         std::vector<check::Op> Ops, sim::Env &E) {
  for (check::Op O : Ops) {
    auto T = A.apply(E, O);
    co_await T;
  }
}

} // namespace

TEST_P(SeededProperty, ExploredEventGraphInvariants) {
  // Exhaustively explore small generated scenarios (check/ScenarioGen.h)
  // over the pristine libraries and assert, on every completed execution's
  // event graph:
  //
  //  * structural well-formedness (EventGraph::checkWellFormed);
  //  * logical-view monotonicity along so edges — a synchronized-with
  //    edge e -so-> d transfers the producer's knowledge, so d's logical
  //    view must contain e and include e's entire view (Section 4.2's
  //    view transfer);
  //  * commit-index totality — committed events carry unique commit
  //    indices forming a gapless range (a *total* commit order `<`), and
  //    committedEvents() yields them strictly ascending;
  //  * logical views only reach *earlier-committed* events (CommitIdx
  //    monotone along lhb).
  using namespace compass::check;
  GenOptions Gen;
  Gen.MaxThreads = 2;
  Gen.MaxOpsPerThread = 2;
  Gen.MinPreemptions = Gen.MaxPreemptions = 1;
  uint64_t Checked = 0;
  for (Lib L : {Lib::MsQueue, Lib::TreiberStack, Lib::Exchanger,
                Lib::WsDeque}) {
    Scenario S = generateScenario(L, scenarioSeed(GetParam(), L, 0), Gen);
    SCOPED_TRACE(S.str());
    sim::Explorer Ex{scenarioOptions(S, 3000, 1)};
    while (Ex.beginExecution()) {
      Machine M(Ex);
      sim::Scheduler Sch(M, Ex);
      Sch.setPreemptionBound(Ex.options().PreemptionBound);
      spec::SpecMonitor Mon;
      ContainerAdapter A(S, Mutation::None, M, Mon);
      for (const auto &T : S.Threads) {
        sim::Env &E = Sch.newThread();
        Sch.start(E, applyOps(A, T, E));
      }
      auto R = Sch.run(Ex.options().MaxStepsPerExec);
      if (R == sim::Scheduler::RunResult::Done) {
        const graph::EventGraph &G = Mon.graph();
        std::string Err = G.checkWellFormed();
        ASSERT_TRUE(Err.empty()) << Err << "\n" << G.str();

        for (const graph::SoEdge &Ed : G.so()) {
          ASSERT_TRUE(G.isCommitted(Ed.From));
          ASSERT_TRUE(G.isCommitted(Ed.To));
          const graph::Event &From = G.event(Ed.From);
          const graph::Event &To = G.event(Ed.To);
          if (From.CommitIdx < To.CommitIdx) {
            // Commit-order-forward edge: the later event acquired the
            // earlier one's knowledge at its commit point.
            EXPECT_TRUE(To.LogView.contains(Ed.From))
                << "so edge " << Ed.From << "->" << Ed.To
                << " without knowledge transfer\n"
                << G.str();
            EXPECT_TRUE(From.LogView.subsetOf(To.LogView))
                << "logical view not monotone along so edge " << Ed.From
                << "->" << Ed.To << "\n"
                << G.str();
          } else {
            // Back edges arise only from the exchanger's symmetric
            // pairing (so-pairs in both directions, Section 4.2); the
            // commit-order-forward dual must exist and carries the view
            // transfer checked above.
            EXPECT_EQ(From.Kind, graph::OpKind::Exchange) << G.str();
            bool HasDual = false;
            for (graph::EventId Succ : G.soSuccessors(Ed.To))
              HasDual |= Succ == Ed.From;
            EXPECT_TRUE(HasDual)
                << "back so edge " << Ed.From << "->" << Ed.To
                << " without forward dual\n"
                << G.str();
          }
        }

        std::vector<graph::EventId> Ids = G.committedEvents();
        uint32_t MinIdx = ~0u, MaxIdx = 0;
        std::set<uint32_t> SeenIdx;
        uint32_t PrevIdx = 0;
        for (size_t I = 0; I != Ids.size(); ++I) {
          const graph::Event &Ev = G.event(Ids[I]);
          EXPECT_TRUE(SeenIdx.insert(Ev.CommitIdx).second)
              << "duplicate commit index " << Ev.CommitIdx;
          if (I > 0) {
            EXPECT_GT(Ev.CommitIdx, PrevIdx)
                << "committedEvents() not in commit order";
          }
          PrevIdx = Ev.CommitIdx;
          MinIdx = std::min(MinIdx, Ev.CommitIdx);
          MaxIdx = std::max(MaxIdx, Ev.CommitIdx);
          Ev.LogView.forEach([&](uint32_t Other) {
            ASSERT_TRUE(G.isCommitted(Other));
            EXPECT_LE(G.event(Other).CommitIdx, Ev.CommitIdx)
                << "logical view of " << Ids[I]
                << " reaches a later-committed event " << Other;
          });
        }
        if (!Ids.empty()) {
          EXPECT_EQ(static_cast<size_t>(MaxIdx - MinIdx) + 1, Ids.size())
              << "commit indices are not a gapless total order";
        }
        ++Checked;
      }
      Ex.endExecution(R);
    }
  }
  EXPECT_GT(Checked, 0u) << "sweep was vacuous";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
