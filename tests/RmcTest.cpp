//===-- tests/RmcTest.cpp - Unit tests for the RMC view machine ------------===//
//
// Tests drive the Machine directly (its operations are synchronous;
// nondeterminism is resolved by a scripted ChoiceSource), validating the
// view-transfer rules of Section 2.3 one instruction at a time.
//
//===----------------------------------------------------------------------===//

#include "rmc/Machine.h"

#include <gtest/gtest.h>

#include <vector>

using namespace compass;
using namespace compass::rmc;

namespace {

/// Replays a fixed list of picks, then falls back to 0 (newest message /
/// first alternative).
class ScriptedChoice final : public ChoiceSource {
public:
  explicit ScriptedChoice(std::vector<unsigned> Picks = {})
      : Picks(std::move(Picks)) {}

  unsigned choose(unsigned Count, const char *) override {
    unsigned P = Pos < Picks.size() ? Picks[Pos++] : 0;
    EXPECT_LT(P, Count) << "scripted pick out of range";
    return P < Count ? P : 0;
  }

private:
  std::vector<unsigned> Picks;
  size_t Pos = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Views
//===----------------------------------------------------------------------===//

TEST(ViewTest, DefaultIsBottom) {
  View V;
  EXPECT_EQ(V.get(0), 0u);
  EXPECT_EQ(V.get(100), 0u);
  EXPECT_EQ(V.countNonZero(), 0u);
}

TEST(ViewTest, RaiseIsMonotone) {
  View V;
  V.raise(3, 5);
  EXPECT_EQ(V.get(3), 5u);
  V.raise(3, 2); // Lower: no effect.
  EXPECT_EQ(V.get(3), 5u);
  V.raise(3, 9);
  EXPECT_EQ(V.get(3), 9u);
}

TEST(ViewTest, JoinIsPointwiseMax) {
  View A, B;
  A.raise(0, 4);
  A.raise(2, 1);
  B.raise(0, 2);
  B.raise(5, 7);
  View J = join(A, B);
  EXPECT_EQ(J.get(0), 4u);
  EXPECT_EQ(J.get(2), 1u);
  EXPECT_EQ(J.get(5), 7u);
}

TEST(ViewTest, InclusionIsPartialOrder) {
  View A, B;
  A.raise(1, 3);
  B.raise(1, 3);
  B.raise(2, 1);
  EXPECT_TRUE(A.includedIn(B));
  EXPECT_FALSE(B.includedIn(A));
  EXPECT_TRUE(A.includedIn(A));
  // Incomparable pair.
  View C;
  C.raise(9, 1);
  EXPECT_FALSE(A.includedIn(C));
  EXPECT_FALSE(C.includedIn(A));
}

TEST(ViewTest, JoinIsLeastUpperBound) {
  View A, B;
  A.raise(1, 5);
  B.raise(2, 6);
  View J = join(A, B);
  EXPECT_TRUE(A.includedIn(J));
  EXPECT_TRUE(B.includedIn(J));
}

TEST(KnowledgeTest, JoinCombinesBothComponents) {
  Knowledge A, B;
  A.Phys.raise(0, 1);
  A.Events.insert(10);
  B.Phys.raise(1, 2);
  B.Events.insert(20);
  A.joinWith(B);
  EXPECT_EQ(A.Phys.get(0), 1u);
  EXPECT_EQ(A.Phys.get(1), 2u);
  EXPECT_TRUE(A.Events.contains(10));
  EXPECT_TRUE(A.Events.contains(20));
  EXPECT_TRUE(B.Phys.includedIn(A.Phys) && B.Events.subsetOf(A.Events));
}

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

TEST(MemoryTest, AllocCreatesInitMessage) {
  Memory M;
  Loc L = M.alloc("x", 1, 42);
  EXPECT_EQ(M.cell(L).Len, 1u);
  EXPECT_EQ(M.cell(L).latestVal(), 42u);
  EXPECT_EQ(M.cell(L).latestTs(), 0u);
}

TEST(MemoryTest, MultiCellAllocIsContiguous) {
  Memory M;
  Loc Base = M.alloc("arr", 3, 7);
  for (Loc I = 0; I < 3; ++I)
    EXPECT_EQ(M.cell(Base + I).latestVal(), 7u);
  EXPECT_EQ(M.size(), 3u);
}

TEST(MemoryTest, AppendAssignsDenseTimestamps) {
  Memory M;
  Loc L = M.alloc("x");
  M.append(L, 1, Knowledge(), 0);
  M.append(L, 2, Knowledge(), 1);
  EXPECT_EQ(M.cell(L).latestTs(), 2u);
  EXPECT_EQ(M.cell(L).val(1), 1u);
  EXPECT_EQ(M.cell(L).val(2), 2u);
  EXPECT_EQ(M.cell(L).writer(2), 1u);
}

TEST(MemoryTest, ReadableCount) {
  Memory M;
  Loc L = M.alloc("x");
  M.append(L, 1, Knowledge(), 0);
  M.append(L, 2, Knowledge(), 0);
  EXPECT_EQ(M.countReadableFrom(L, 0), 3u);
  EXPECT_EQ(M.countReadableFrom(L, 2), 1u);
}

//===----------------------------------------------------------------------===//
// Machine: basic accesses
//===----------------------------------------------------------------------===//

TEST(MachineTest, NaStoreLoadSingleThread) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 5, MemOrder::NonAtomic);
  EXPECT_EQ(M.load(T0, X, MemOrder::NonAtomic), 5u);
  EXPECT_FALSE(M.raceDetected());
}

TEST(MachineTest, ReleaseAcquireTransfersView) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("flag");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.store(T0, F, 1, MemOrder::Release);
  EXPECT_EQ(M.load(T1, F, MemOrder::Acquire), 1u); // Newest by default.
  EXPECT_EQ(M.load(T1, X, MemOrder::NonAtomic), 7u);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST(MachineTest, UnsynchronizedNaReadIsRace) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.load(T1, X, MemOrder::NonAtomic);
  EXPECT_TRUE(M.raceDetected());
}

TEST(MachineTest, ConcurrentNaWritesAreRace) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::NonAtomic);
  M.store(T1, X, 2, MemOrder::NonAtomic);
  EXPECT_TRUE(M.raceDetected());
}

TEST(MachineTest, RelaxedReadDoesNotTransferView) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("flag");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.store(T0, F, 1, MemOrder::Release);
  EXPECT_EQ(M.load(T1, F, MemOrder::Relaxed), 1u);
  M.load(T1, X, MemOrder::NonAtomic); // Racy: no acquire happened.
  EXPECT_TRUE(M.raceDetected());
}

TEST(MachineTest, RelaxedReadPlusAcquireFenceTransfers) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("flag");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.store(T0, F, 1, MemOrder::Release);
  EXPECT_EQ(M.load(T1, F, MemOrder::Relaxed), 1u);
  M.fence(T1, MemOrder::Acquire);
  EXPECT_EQ(M.load(T1, X, MemOrder::NonAtomic), 7u);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST(MachineTest, ReleaseFencePlusRelaxedWriteTransfers) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("flag");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.fence(T0, MemOrder::Release);
  M.store(T0, F, 1, MemOrder::Relaxed);
  EXPECT_EQ(M.load(T1, F, MemOrder::Acquire), 1u);
  EXPECT_EQ(M.load(T1, X, MemOrder::NonAtomic), 7u);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST(MachineTest, RelaxedWriteWithoutFenceDoesNotRelease) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("flag");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  M.store(T0, F, 1, MemOrder::Relaxed); // No release.
  EXPECT_EQ(M.load(T1, F, MemOrder::Acquire), 1u);
  M.load(T1, X, MemOrder::NonAtomic);
  EXPECT_TRUE(M.raceDetected());
}

TEST(MachineTest, StaleReadObservesOldMessage) {
  ScriptedChoice C({1}); // Read the second-newest message.
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc Y = M.alloc("y");
  M.store(T0, Y, 1, MemOrder::Relaxed);
  M.store(T0, Y, 2, MemOrder::Relaxed);
  EXPECT_EQ(M.load(T1, Y, MemOrder::Relaxed), 1u);
}

TEST(MachineTest, CoherenceReadsNeverGoBackwards) {
  ScriptedChoice C({0}); // First read: newest.
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc Y = M.alloc("y");
  M.store(T0, Y, 1, MemOrder::Relaxed);
  M.store(T0, Y, 2, MemOrder::Relaxed);
  EXPECT_EQ(M.load(T1, Y, MemOrder::Relaxed), 2u);
  // After observing ts 2, only one message remains readable: no choice is
  // consulted and the same value is returned.
  EXPECT_EQ(M.load(T1, Y, MemOrder::Relaxed), 2u);
  EXPECT_EQ(M.load(T1, Y, MemOrder::Relaxed), 2u);
}

//===----------------------------------------------------------------------===//
// Machine: RMWs
//===----------------------------------------------------------------------===//

TEST(MachineTest, CasSucceedsAgainstMaximal) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x");
  auto R = M.cas(T0, X, 0, 5, MemOrder::AcqRel);
  EXPECT_TRUE(R.Success);
  EXPECT_EQ(R.Old, 0u);
  EXPECT_EQ(M.load(T0, X, MemOrder::Relaxed), 5u);
}

TEST(MachineTest, CasCannotSucceedAgainstStaleValue) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Relaxed);
  // T1 expects 0; the only messages are 0 (stale) and 1 (maximal). A
  // strong CAS may not read the stale 0 and "succeed"; it must fail
  // reading 1.
  auto R = M.cas(T1, X, 0, 9, MemOrder::AcqRel);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Old, 1u);
}

TEST(MachineTest, FailedCasCanReadStaleDifferentValue) {
  ScriptedChoice C({1}); // Pick the older failing message.
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Relaxed);
  M.store(T0, X, 2, MemOrder::Relaxed);
  auto R = M.cas(T1, X, 9, 7, MemOrder::AcqRel);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Old, 1u); // Failure alternatives: 2 (newest), 1, 0.
}

TEST(MachineTest, CasReleaseSequenceTransfersThroughRmwChain) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread(), T2 = M.addThread();
  Loc X = M.alloc("x"), Ctr = M.alloc("c");
  M.store(T0, X, 7, MemOrder::NonAtomic);
  // T0 releases through the counter; T1's intervening relaxed-read RMW
  // must not break the release sequence.
  EXPECT_EQ(M.fetchAdd(T0, Ctr, 1, MemOrder::Release), 0u);
  EXPECT_EQ(M.fetchAdd(T1, Ctr, 1, MemOrder::Relaxed), 1u);
  EXPECT_EQ(M.load(T2, Ctr, MemOrder::Acquire), 2u);
  EXPECT_EQ(M.load(T2, X, MemOrder::NonAtomic), 7u);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST(MachineTest, FetchAddReturnsOldAndAccumulates) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x", 1, 10);
  EXPECT_EQ(M.fetchAdd(T0, X, 5, MemOrder::AcqRel), 10u);
  EXPECT_EQ(M.fetchAdd(T0, X, 1, MemOrder::AcqRel), 15u);
  EXPECT_EQ(M.load(T0, X, MemOrder::Relaxed), 16u);
}

//===----------------------------------------------------------------------===//
// Machine: SC accesses, monitor hooks, misc
//===----------------------------------------------------------------------===//

TEST(MachineTest, SeqCstAccessesSynchronize) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x"), F = M.alloc("f");
  M.store(T0, X, 3, MemOrder::NonAtomic);
  M.store(T0, F, 1, MemOrder::SeqCst);
  EXPECT_EQ(M.load(T1, F, MemOrder::SeqCst), 1u);
  EXPECT_EQ(M.load(T1, X, MemOrder::NonAtomic), 3u);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST(MachineTest, ScFenceForcesFreshReads) {
  ScriptedChoice C({1}); // Would pick a stale message if offered one.
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Relaxed);
  M.fence(T0, MemOrder::SeqCst);
  M.fence(T1, MemOrder::SeqCst);
  // T1's SC fence joined the global SC view, which knows x@1: only the
  // newest message is readable, so the scripted stale pick never fires.
  EXPECT_EQ(M.load(T1, X, MemOrder::Relaxed), 1u);
}

TEST(MachineTest, EventIdsRideReleaseMessages) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc F = M.alloc("f");
  M.threadCur(T0).Events.insert(33);
  M.store(T0, F, 1, MemOrder::Release);
  EXPECT_EQ(M.load(T1, F, MemOrder::Acquire), 1u);
  EXPECT_TRUE(M.threadCur(T1).Events.contains(33));
}

TEST(MachineTest, EventIdsDoNotRideRelaxedMessages) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc F = M.alloc("f");
  M.threadCur(T0).Events.insert(33);
  M.store(T0, F, 1, MemOrder::Relaxed);
  EXPECT_EQ(M.load(T1, F, MemOrder::Acquire), 1u);
  EXPECT_FALSE(M.threadCur(T1).Events.contains(33));
}

TEST(MachineTest, LastReadTracksMostRecentRead) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.threadCur(T0).Events.insert(9);
  M.store(T0, X, 4, MemOrder::Release);
  M.load(T1, X, MemOrder::Acquire);
  EXPECT_EQ(M.lastReadTs(T1), 1u);
  EXPECT_TRUE(M.lastReadKnowledge(T1).Events.contains(9));
}

TEST(MachineTest, StatsCountOperations) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Relaxed);
  M.load(T0, X, MemOrder::Relaxed);
  M.cas(T0, X, 1, 2, MemOrder::AcqRel);
  M.fence(T0, MemOrder::SeqCst);
  EXPECT_EQ(M.stats().Stores, 1u);
  EXPECT_EQ(M.stats().Loads, 1u);
  EXPECT_EQ(M.stats().Rmws, 1u);
  EXPECT_EQ(M.stats().Fences, 1u);
}

TEST(MachineTest, TraceRecordsOperations) {
  ScriptedChoice C;
  Machine M(C);
  M.enableTrace(true);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Release);
  M.load(T0, X, MemOrder::Acquire);
  ASSERT_EQ(M.trace().size(), 2u);
  EXPECT_NE(M.trace()[0].find("st.rel"), std::string::npos);
  EXPECT_NE(M.trace()[1].find("ld.acq"), std::string::npos);
}

TEST(MachineTest, LoadWhereReadsSatisfyingMessage) {
  ScriptedChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc X = M.alloc("x");
  M.store(T0, X, 1, MemOrder::Relaxed);
  M.store(T0, X, 2, MemOrder::Relaxed);
  EXPECT_FALSE(M.anyReadableSatisfies(T1, X, [](Value V) { return V > 2; }));
  EXPECT_TRUE(M.anyReadableSatisfies(T1, X, [](Value V) { return V == 1; }));
  EXPECT_EQ(M.loadWhere(T1, X, MemOrder::Acquire,
                        [](Value V) { return V == 1; }),
            1u);
}
