//===-- tests/SpecTest.cpp - Consistency & linearization checker tests -----===//
//
// Validates the spec layer on hand-crafted event graphs: each consistency
// condition of Figure 2 / Sections 3.3, 4.2 is exercised with a positive
// and a negative instance, and the LAT_hist linearization search is tested
// on histories with known answers.
//
//===----------------------------------------------------------------------===//

#include "spec/Consistency.h"
#include "spec/Linearization.h"

#include <gtest/gtest.h>

using namespace compass;
using namespace compass::graph;
using namespace compass::spec;

namespace {

/// Small DSL for building graphs in tests.
struct GraphBuilder {
  EventGraph G;
  uint32_t NextIdx = 0;

  EventId add(OpKind K, rmc::Value V1,
              std::initializer_list<EventId> Seen = {}, unsigned Thread = 0,
              rmc::Value V2 = 0, unsigned Obj = 0) {
    EventId Id = G.reserve();
    Event E;
    E.Kind = K;
    E.V1 = V1;
    E.V2 = V2;
    E.ObjId = Obj;
    E.Thread = Thread;
    E.LogView.insert(Id);
    for (EventId S : Seen) {
      E.LogView.insert(S);
      // Keep views transitively closed, as the monitor does.
      G.event(S).LogView.forEach([&](uint32_t X) { E.LogView.insert(X); });
    }
    G.commit(Id, std::move(E));
    return Id;
  }

  void so(EventId A, EventId B) { G.addSo(A, B); }
};

bool hasViolation(const CheckResult &R, const char *Rule) {
  for (const std::string &V : R.Violations)
    if (V.find(Rule) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// QueueConsistent
//===----------------------------------------------------------------------===//

TEST(QueueConsistencyTest, EmptyGraphIsConsistent) {
  EventGraph G;
  EXPECT_TRUE(checkQueueConsistent(G, 0).ok());
}

TEST(QueueConsistencyTest, MatchedPairIsConsistent) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 1);
  B.so(E1, D1);
  auto R = checkQueueConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(QueueConsistencyTest, ValueMismatchViolatesMatches) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId D1 = B.add(OpKind::DeqOk, 2, {E1}, 1); // Wrong value.
  B.so(E1, D1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "MATCHES"));
}

TEST(QueueConsistencyTest, UnobservedProducerViolatesSoLhb) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId D1 = B.add(OpKind::DeqOk, 1, {}, 1); // No lhb edge.
  B.so(E1, D1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "SO-LHB"));
}

TEST(QueueConsistencyTest, DoubleDequeueViolatesInj) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 1);
  EventId D2 = B.add(OpKind::DeqOk, 1, {E1}, 2);
  B.so(E1, D1);
  B.so(E1, D2);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "INJ"));
}

TEST(QueueConsistencyTest, ConsumeWithoutProducerViolates) {
  GraphBuilder B;
  B.add(OpKind::DeqOk, 1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "UNMATCHED"));
}

TEST(QueueConsistencyTest, FifoViolationDetected) {
  // e1 lhb e2 (same thread), e2 dequeued, e1 never dequeued: QUEUE-FIFO.
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  EventId E2 = B.add(OpKind::Enq, 2, {E1}, 0);
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2}, 1);
  B.so(E2, D2);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "FIFO"));
}

TEST(QueueConsistencyTest, FifoOrderWithBothDequeuedIsConsistent) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  EventId E2 = B.add(OpKind::Enq, 2, {E1}, 0);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 1);
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2, D1}, 1);
  B.so(E1, D1);
  B.so(E2, D2);
  auto R = checkQueueConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(QueueConsistencyTest, FifoInverseDequeueOrderViolates) {
  // Both dequeued, but the dequeue of the later enqueue happens-before
  // the dequeue of the earlier one.
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  EventId E2 = B.add(OpKind::Enq, 2, {E1}, 0);
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2}, 1);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1, D2}, 1); // D2 lhb D1.
  B.so(E2, D2);
  B.so(E1, D1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "FIFO"));
}

TEST(QueueConsistencyTest, UnrelatedEnqueuesNeedNoFifo) {
  // No lhb between the enqueues: dequeuing only the second is fine
  // (the weak HW behaviour).
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  (void)E1;
  EventId E2 = B.add(OpKind::Enq, 2, {}, 1);
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2}, 2);
  B.so(E2, D2);
  auto R = checkQueueConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(QueueConsistencyTest, EmpDeqKnowingUnconsumedViolates) {
  // The Figure 1 scenario: an empty dequeue that happens-after an
  // unconsumed enqueue (QUEUE-EMPDEQ).
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  B.add(OpKind::DeqEmpty, EmptyVal, {E1}, 1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "EMPTY"));
}

TEST(QueueConsistencyTest, EmpDeqAfterConsumptionIsConsistent) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 1);
  B.so(E1, D1);
  B.add(OpKind::DeqEmpty, EmptyVal, {E1}, 2);
  auto R = checkQueueConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(QueueConsistencyTest, EmpDeqBeforeLaterConsumerStrictMode) {
  // The matching consumer commits after the empty dequeue: accepted by
  // the paper's condition, rejected by the strict commit-prefix reading.
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1, {}, 0);
  B.add(OpKind::DeqEmpty, EmptyVal, {E1}, 1);
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 2);
  B.so(E1, D1);
  EXPECT_TRUE(checkQueueConsistent(B.G, 0).ok());
  ContainerCheckOptions Strict;
  Strict.StrictEmpty = true;
  EXPECT_TRUE(
      hasViolation(checkQueueConsistent(B.G, 0, Strict), "EMPTY-STRICT"));
}

TEST(QueueConsistencyTest, ForeignKindsRejected) {
  GraphBuilder B;
  B.add(OpKind::Push, 1);
  EXPECT_TRUE(hasViolation(checkQueueConsistent(B.G, 0), "KINDS"));
}

//===----------------------------------------------------------------------===//
// StackConsistent
//===----------------------------------------------------------------------===//

TEST(StackConsistencyTest, LifoPairConsistent) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {P1}, 1);
  B.so(P1, O1);
  auto R = checkStackConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(StackConsistencyTest, LifoViolationDetected) {
  // push 1, push 2 (ordered), then a pop that knows about push 2 takes 1
  // while 2 is never popped: LIFO violation.
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1, {}, 0);
  EventId P2 = B.add(OpKind::Push, 2, {P1}, 0);
  EventId O1 = B.add(OpKind::PopOk, 1, {P2}, 1);
  B.so(P1, O1);
  EXPECT_TRUE(hasViolation(checkStackConsistent(B.G, 0), "LIFO"));
}

TEST(StackConsistencyTest, PopInLifoOrderConsistent) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1, {}, 0);
  EventId P2 = B.add(OpKind::Push, 2, {P1}, 0);
  EventId O2 = B.add(OpKind::PopOk, 2, {P2}, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {O2}, 1);
  B.so(P2, O2);
  B.so(P1, O1);
  auto R = checkStackConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(StackConsistencyTest, PopsWithoutKnowledgeOfLaterPushConsistent) {
  // The pop never observed push 2, so taking 1 underneath is allowed for
  // a relaxed stack.
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1, {}, 0);
  EventId P2 = B.add(OpKind::Push, 2, {P1}, 0);
  (void)P2;
  EventId O1 = B.add(OpKind::PopOk, 1, {P1}, 1);
  B.so(P1, O1);
  auto R = checkStackConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(StackConsistencyTest, EmptyPopKnowingUnpoppedViolates) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1, {}, 0);
  B.add(OpKind::PopEmpty, EmptyVal, {P1}, 1);
  EXPECT_TRUE(hasViolation(checkStackConsistent(B.G, 0), "EMPTY"));
}

//===----------------------------------------------------------------------===//
// ExchangerConsistent
//===----------------------------------------------------------------------===//

TEST(ExchangerConsistencyTest, MatchedPairConsistent) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, /*V2=*/2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, /*V2=*/1);
  B.so(X1, X2);
  B.so(X2, X1);
  auto R = checkExchangerConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ExchangerConsistencyTest, FailedExchangeConsistent) {
  GraphBuilder B;
  B.add(OpKind::Exchange, 1, {}, 0, BottomVal);
  auto R = checkExchangerConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ExchangerConsistencyTest, ValuesMustCross) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, /*V2=*/9); // Wrong.
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, /*V2=*/1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "CROSS"));
}

TEST(ExchangerConsistencyTest, SelfExchangeRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, /*Thread=*/0, 2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, /*Thread=*/0, 1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "SELF"));
}

TEST(ExchangerConsistencyTest, NonAdjacentCommitsRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, 2);
  B.add(OpKind::Exchange, 7, {}, 2, BottomVal); // Intervening commit.
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(
      hasViolation(checkExchangerConsistent(B.G, 0), "ATOMIC-PAIR"));
}

TEST(ExchangerConsistencyTest, HalfPairRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, 2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2); // Missing the symmetric edge.
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "PAIR"));
}

TEST(ExchangerConsistencyTest, FailedExchangeWithEdgesRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, BottomVal);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2);
  EXPECT_TRUE(
      hasViolation(checkExchangerConsistent(B.G, 0), "FAIL-MATCHED"));
}

//===----------------------------------------------------------------------===//
// Abstract-state replay (LAT_abs_hb)
//===----------------------------------------------------------------------===//

TEST(AbsStateTest, FifoReplayConsistent) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D1 = B.add(OpKind::DeqOk, 1, {E1}, 1);
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2}, 1);
  B.so(E1, D1);
  B.so(E2, D2);
  EXPECT_TRUE(checkQueueAbsState(B.G, 0).ok());
}

TEST(AbsStateTest, FifoReplayOutOfOrderViolates) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2}, 1); // Pops 2 while 1 in front.
  B.so(E2, D2);
  EXPECT_TRUE(hasViolation(checkQueueAbsState(B.G, 0), "ABS"));
}

TEST(AbsStateTest, LifoReplayConsistent) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId P2 = B.add(OpKind::Push, 2, {P1});
  EventId O2 = B.add(OpKind::PopOk, 2, {P2}, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {O2}, 1);
  B.so(P2, O2);
  B.so(P1, O1);
  EXPECT_TRUE(checkStackAbsState(B.G, 0).ok());
}

TEST(AbsStateTest, ConsumeFromEmptyViolates) {
  GraphBuilder B;
  EventId D = B.add(OpKind::DeqOk, 1);
  (void)D;
  EXPECT_TRUE(hasViolation(checkQueueAbsState(B.G, 0), "ABS"));
}

TEST(AbsStateTest, TrueEmptyOptionFlagsNonEmptyEmpties) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  (void)E1;
  B.add(OpKind::DeqEmpty, EmptyVal, {}, 1);
  EXPECT_TRUE(checkQueueAbsState(B.G, 0).ok());
  AbsStateOptions Strict;
  Strict.RequireTrueEmpty = true;
  EXPECT_TRUE(
      hasViolation(checkQueueAbsState(B.G, 0, Strict), "ABS-EMPTY"));
}

//===----------------------------------------------------------------------===//
// Linearization search (LAT_hist_hb)
//===----------------------------------------------------------------------===//

TEST(LinearizationTest, EmptyHistoryTriviallyLinearizable) {
  EventGraph G;
  auto R = findLinearization(G, 0, SeqSpec::Stack);
  EXPECT_TRUE(R.Found);
  EXPECT_TRUE(R.Order.empty());
}

TEST(LinearizationTest, SimpleStackHistory) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {P1}, 1);
  B.so(P1, O1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  ASSERT_TRUE(R.Found);
  ASSERT_EQ(R.Order.size(), 2u);
  EXPECT_EQ(R.Order[0], P1);
  EXPECT_EQ(R.Order[1], O1);
}

TEST(LinearizationTest, ReorderingAgainstCommitOrderAllowed) {
  // Commit order: pop(2), push(2) — but lhb does not order them, so the
  // search may reorder (the LAT_hist freedom of Section 3.3).
  GraphBuilder B;
  EventId O2 = B.add(OpKind::PopOk, 2, {}, 1);
  EventId P2 = B.add(OpKind::Push, 2, {}, 0);
  B.so(P2, O2);
  // NOTE: so here is not within lhb; the graph is odd but the search only
  // uses lhb and values.
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_TRUE(R.Found);
}

TEST(LinearizationTest, LhbConstraintsRespected) {
  // pop(eps) that happens-after push(1) with no pop of 1 first: no
  // linearization (the empty pop cannot be placed).
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  B.add(OpKind::PopEmpty, EmptyVal, {P1}, 1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, EmptyPopPlacedBeforePush) {
  // Same events without the lhb edge: pop(eps) can linearize first.
  GraphBuilder B;
  B.add(OpKind::Push, 1);
  B.add(OpKind::PopEmpty, EmptyVal, {}, 1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(B.G.event(R.Order[0]).Kind, OpKind::PopEmpty);
}

TEST(LinearizationTest, MismatchedPopValueNotLinearizable) {
  GraphBuilder B;
  B.add(OpKind::Push, 1);
  B.add(OpKind::PopOk, 2, {}, 1); // 2 was never pushed.
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, LifoOrderRequired) {
  // push1 lhb push2 lhb pop(1) lhb pop(2): as a stack this needs popping
  // 2 before 1, but lhb forces pop(1) first -> not linearizable.
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId P2 = B.add(OpKind::Push, 2, {P1});
  EventId O1 = B.add(OpKind::PopOk, 1, {P2});
  B.add(OpKind::PopOk, 2, {O1});
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, QueueSpecFifo) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D1 = B.add(OpKind::DeqOk, 1, {E2});
  B.add(OpKind::DeqOk, 2, {D1});
  auto R = findLinearization(B.G, 0, SeqSpec::Queue);
  EXPECT_TRUE(R.Found);
}

TEST(LinearizationTest, QueueSpecRejectsLifo) {
  // Dequeues observe both enqueues and pop in LIFO order: not a queue.
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2});
  B.add(OpKind::DeqOk, 1, {D2});
  auto R = findLinearization(B.G, 0, SeqSpec::Queue);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, SearchReportsEffort) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {P1});
  B.so(P1, O1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_GT(R.StatesExplored, 0u);
}

TEST(LinearizationTest, OverlongHistoryAbortsInsteadOfExiting) {
  // 65 pushes exceed the search's 64-event state mask: the result is an
  // aborted search (counted as lin_abort by the harness), not a fatal
  // error that would end the whole run.
  GraphBuilder B;
  for (rmc::Value V = 1; V <= 65; ++V)
    B.add(OpKind::Push, V);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_TRUE(R.Aborted);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.Order.empty());

  // 64 events are still searched.
  GraphBuilder C;
  for (rmc::Value V = 1; V <= 64; ++V)
    C.add(OpKind::Push, V);
  auto R64 = findLinearization(C.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R64.Aborted);
  EXPECT_TRUE(R64.Found);
}
