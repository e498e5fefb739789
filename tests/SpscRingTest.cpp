//===-- tests/SpscRingTest.cpp - SPSC ring buffer vs. its spec --------------===//
//
// The Lamport SPSC ring: a CAS-free algorithm whose entire correctness is
// release/acquire index handoff over non-atomic slots. The model checker
// validates QueueConsistent + abstract state on every execution, and —
// the distinctive part — the race detector acts as the safety oracle for
// the slot ownership transfer, including across wrap-around reuse.
//
//===----------------------------------------------------------------------===//

#include "lib/SpscRing.h"
#include "native/SpscRing.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;
using compass::graph::EmptyVal;

namespace {

Task<void> ringProducer(Env &E, lib::SpscRing &Q, std::vector<Value> Vs) {
  for (Value V : Vs) {
    auto T = Q.enqueueBlocking(E, V);
    co_await T;
  }
}

Task<void> ringConsumer(Env &E, lib::SpscRing &Q, unsigned Blocking,
                        unsigned NonBlocking, std::vector<Value> *Out) {
  for (unsigned I = 0; I != Blocking; ++I) {
    auto T = Q.dequeueBlocking(E);
    Out->push_back(co_await T);
  }
  for (unsigned I = 0; I != NonBlocking; ++I) {
    auto T = Q.dequeue(E);
    Out->push_back(co_await T);
  }
}

struct RingStats {
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
  uint64_t Races = 0;
  std::string FirstViolation;
};

RingStats exploreRing(unsigned Capacity, std::vector<Value> Items,
                      unsigned BlockingDeqs, unsigned NonBlockingDeqs,
                      unsigned Preemptions = ~0u) {
  Explorer::Options Opts;
  Opts.PreemptionBound = Preemptions;
  Opts.MaxExecutions = 400'000;

  RingStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::SpscRing> Q;
  std::vector<Value> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        Q = std::make_unique<lib::SpscRing>(M, *Mon, "r", Capacity);
        Got.clear();
        Env &E0 = S.newThread();
        S.start(E0, ringProducer(E0, *Q, Items));
        Env &E1 = S.newThread();
        S.start(E1,
                ringConsumer(E1, *Q, BlockingDeqs, NonBlockingDeqs, &Got));
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Deadlock);
        if (R == Scheduler::RunResult::Race &&
            Stats.FirstViolation.empty())
          Stats.FirstViolation = M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        auto GR = checkQueueConsistent(Mon->graph(), Q->objId());
        if (!GR.ok()) {
          ++Stats.GraphViolations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = GR.str() + Mon->graph().str();
        }
        if (!checkQueueAbsState(Mon->graph(), Q->objId()).ok())
          ++Stats.AbsViolations;
      });
  Stats.Races = Sum.Races;
  EXPECT_GT(Sum.Executions, 0u);
  return Stats;
}

} // namespace

TEST(SpscRingSimTest, BasicHandoffRaceFreeAndConsistent) {
  auto Stats = exploreRing(/*Capacity=*/2, {1, 2}, /*Blocking=*/2,
                           /*NonBlocking=*/1);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Races, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u);
}

TEST(SpscRingSimTest, WrapAroundSlotReuseRaceFree) {
  // Capacity 1 with three items: every slot is reused twice, so the
  // producer's na write lands on a cell the consumer just read — the
  // handoff through head's release/acquire must cover it.
  auto Stats = exploreRing(/*Capacity=*/1, {1, 2, 3}, /*Blocking=*/3,
                           /*NonBlocking=*/0);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Races, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u);
}

TEST(SpscRingSimTest, NonBlockingEmptyDequeuesConsistent) {
  auto Stats = exploreRing(/*Capacity=*/2, {1}, /*Blocking=*/1,
                           /*NonBlocking=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Races, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
}

//===----------------------------------------------------------------------===//
// Native twin
//===----------------------------------------------------------------------===//

TEST(SpscRingNativeTest, FifoSingleThread) {
  native::SpscRing<uint64_t> Q(2);
  EXPECT_FALSE(Q.dequeue().has_value());
  EXPECT_TRUE(Q.tryEnqueue(1));
  EXPECT_TRUE(Q.tryEnqueue(2));
  EXPECT_FALSE(Q.tryEnqueue(3)) << "full ring must reject";
  EXPECT_EQ(*Q.dequeue(), 1u);
  EXPECT_TRUE(Q.tryEnqueue(3)); // Wrap-around.
  EXPECT_EQ(*Q.dequeue(), 2u);
  EXPECT_EQ(*Q.dequeue(), 3u);
  EXPECT_FALSE(Q.dequeue().has_value());
}

TEST(SpscRingNativeTest, PipelinePreservesOrder) {
  native::SpscRing<uint64_t> Q(64);
  constexpr uint64_t N = 50'000;
  std::vector<uint64_t> Seen;
  Seen.reserve(N);
  std::thread Producer([&] {
    for (uint64_t I = 1; I <= N;) {
      if (Q.tryEnqueue(I))
        ++I;
      else
        std::this_thread::yield(); // Single-core host: let the consumer run.
    }
  });
  std::thread Consumer([&] {
    while (Seen.size() < N) {
      if (auto V = Q.dequeue())
        Seen.push_back(*V);
      else
        std::this_thread::yield();
    }
  });
  Producer.join();
  Consumer.join();
  ASSERT_EQ(Seen.size(), N);
  for (uint64_t I = 0; I != N; ++I)
    ASSERT_EQ(Seen[I], I + 1);
}
