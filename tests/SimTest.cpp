//===-- tests/SimTest.cpp - Scheduler/Explorer tests and litmus tests ------===//
//
// Validates the simulation kernel: coroutine threads, cooperative
// scheduling, exhaustive exploration, preemption bounding, pruning — and
// the memory model end-to-end through classic litmus tests (MP, SB, CoRR)
// whose allowed/forbidden outcome sets are known for RC11 without load
// buffering.
//
//===----------------------------------------------------------------------===//

#include "sim/Explorer.h"
#include "sim/Scheduler.h"
#include "sim/Task.h"
#include "sim/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

Task<void> storeTwice(Env &E, Loc A, Loc B) {
  co_await E.store(A, 1, MemOrder::Relaxed);
  co_await E.store(B, 1, MemOrder::Relaxed);
}

Task<Value> addSub(Env &E, Loc X) {
  Value V = co_await E.load(X, MemOrder::Relaxed);
  co_return V + 1;
}

Task<void> nestedBody(Env &E, Loc X, Value *Out) {
  // Exercises nested task awaiting (continuation chaining).
  auto TA = addSub(E, X);
  Value A = co_await TA;
  auto TB = addSub(E, X);
  Value B = co_await TB;
  *Out = A + B;
}

} // namespace

TEST(SchedulerTest, SingleThreadRunsToCompletion) {
  Explorer Ex;
  ASSERT_TRUE(Ex.beginExecution());
  Machine M(Ex);
  Scheduler S(M, Ex);
  Loc X = M.alloc("x", 1, 20);
  Value Out = 0;
  Env &E0 = S.newThread();
  S.start(E0, nestedBody(E0, X, &Out));
  EXPECT_EQ(S.run(), Scheduler::RunResult::Done);
  EXPECT_EQ(Out, 42u);
  EXPECT_TRUE(S.finished(0));
  Ex.endExecution(Scheduler::RunResult::Done);
}

TEST(ExplorerTest, CountsIndependentInterleavings) {
  // Two threads, two stores each to disjoint locations, no read choices.
  // Each thread takes 3 scheduler steps (launch-to-first-op plus one per
  // store), so the interleavings are C(6,3) = 20.
  auto Sum = explore(
      Explorer::Options{},
      [](Machine &M, Scheduler &S) {
        Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
        Env &E0 = S.newThread();
        S.start(E0, storeTwice(E0, A, A + 1));
        Env &E1 = S.newThread();
        S.start(E1, storeTwice(E1, B, B + 1));
      },
      [](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
      });
  EXPECT_EQ(Sum.Executions, 20u);
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_EQ(Sum.Completed, 20u);
}

TEST(ExplorerTest, DeterministicAcrossRepeats) {
  auto Run = [] {
    return explore(
        Explorer::Options{},
        [](Machine &M, Scheduler &S) {
          Loc A = M.alloc("a"), B = M.alloc("b");
          Env &E0 = S.newThread();
          S.start(E0, storeTwice(E0, A, B));
          Env &E1 = S.newThread();
          S.start(E1, storeTwice(E1, B, A));
        },
        [](Machine &, Scheduler &, Scheduler::RunResult) {});
  };
  auto S1 = Run(), S2 = Run();
  EXPECT_EQ(S1.Executions, S2.Executions);
  EXPECT_EQ(S1.MaxDepth, S2.MaxDepth);
  EXPECT_TRUE(S1.Exhausted);
}

//===----------------------------------------------------------------------===//
// Litmus: Message Passing
//===----------------------------------------------------------------------===//

namespace {

struct MpLitmusOut {
  Value Flag = 0, Data = 0;
};

Task<void> mpWriter(Env &E, Loc X, Loc F, MemOrder StoreO) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, StoreO);
}

Task<void> mpReader(Env &E, Loc X, Loc F, MemOrder LoadO, MpLitmusOut &O) {
  O.Flag = co_await E.load(F, LoadO);
  O.Data = co_await E.load(X, MemOrder::Relaxed);
}

std::set<std::pair<Value, Value>> mpOutcomes(MemOrder StoreO,
                                             MemOrder LoadO) {
  std::set<std::pair<Value, Value>> Outcomes;
  MpLitmusOut O;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = MpLitmusOut();
        Loc X = M.alloc("x"), F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, mpWriter(E0, X, F, StoreO));
        Env &E1 = S.newThread();
        S.start(E1, mpReader(E1, X, F, LoadO, O));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        Outcomes.insert({O.Flag, O.Data});
      });
  return Outcomes;
}

} // namespace

TEST(LitmusTest, MpReleaseAcquireForbidsStaleData) {
  auto Outcomes = mpOutcomes(MemOrder::Release, MemOrder::Acquire);
  EXPECT_FALSE(Outcomes.count({1, 0})) << "rel/acq MP must not lose data";
  EXPECT_TRUE(Outcomes.count({1, 1}));
  EXPECT_TRUE(Outcomes.count({0, 0}));
}

TEST(LitmusTest, MpRelaxedAllowsStaleData) {
  auto Outcomes = mpOutcomes(MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_TRUE(Outcomes.count({1, 0}))
      << "relaxed MP must exhibit the weak behaviour";
  EXPECT_TRUE(Outcomes.count({1, 1}));
}

TEST(LitmusTest, MpRelaxedFlagAcquireReadStillWeak) {
  // Release on the store side alone is not enough.
  auto Outcomes = mpOutcomes(MemOrder::Relaxed, MemOrder::Acquire);
  EXPECT_TRUE(Outcomes.count({1, 0}));
}

//===----------------------------------------------------------------------===//
// Litmus: Store Buffering
//===----------------------------------------------------------------------===//

namespace {

struct SbOut {
  Value R0 = ~0ull, R1 = ~0ull;
};

Task<void> sbThread(Env &E, Loc Mine, Loc Theirs, bool WithFence,
                    Value *R) {
  co_await E.store(Mine, 1, MemOrder::Relaxed);
  if (WithFence)
    co_await E.fence(MemOrder::SeqCst);
  *R = co_await E.load(Theirs, MemOrder::Relaxed);
}

std::set<std::pair<Value, Value>> sbOutcomes(bool WithFences) {
  std::set<std::pair<Value, Value>> Outcomes;
  SbOut O;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = SbOut();
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, sbThread(E0, X, Y, WithFences, &O.R0));
        Env &E1 = S.newThread();
        S.start(E1, sbThread(E1, Y, X, WithFences, &O.R1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        Outcomes.insert({O.R0, O.R1});
      });
  return Outcomes;
}

} // namespace

TEST(LitmusTest, SbRelaxedAllowsBothZero) {
  auto Outcomes = sbOutcomes(false);
  EXPECT_TRUE(Outcomes.count({0, 0}));
  EXPECT_TRUE(Outcomes.count({1, 1}));
}

TEST(LitmusTest, SbScFencesForbidBothZero) {
  auto Outcomes = sbOutcomes(true);
  EXPECT_FALSE(Outcomes.count({0, 0}))
      << "SC fences must forbid the store-buffering outcome";
  EXPECT_TRUE(Outcomes.count({1, 1}) || Outcomes.count({0, 1}) ||
              Outcomes.count({1, 0}));
}

//===----------------------------------------------------------------------===//
// Litmus: coherence (CoRR)
//===----------------------------------------------------------------------===//

namespace {

Task<void> corrWriter(Env &E, Loc X) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(X, 2, MemOrder::Relaxed);
}

Task<void> corrReader(Env &E, Loc X, Value *R1, Value *R2) {
  *R1 = co_await E.load(X, MemOrder::Relaxed);
  *R2 = co_await E.load(X, MemOrder::Relaxed);
}

} // namespace

TEST(LitmusTest, CoRRNeverReadsBackwards) {
  Value R1 = 0, R2 = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        R1 = R2 = 0;
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, corrWriter(E0, X));
        Env &E1 = S.newThread();
        S.start(E1, corrReader(E1, X, &R1, &R2));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult) {
        EXPECT_LE(R1, R2) << "coherence violated: read went backwards";
      });
}

//===----------------------------------------------------------------------===//
// spinUntil, prune, deadlock, step limit, preemption bounds
//===----------------------------------------------------------------------===//

namespace {

Task<void> waiter(Env &E, Loc F, Value *Got) {
  *Got = co_await E.spinUntil(
      F, [](Value V) { return V != 0; }, MemOrder::Acquire);
}

Task<void> signaler(Env &E, Loc F) {
  co_await E.store(F, 7, MemOrder::Release);
}

Task<void> eternalSpinner(Env &E, Loc F) {
  co_await E.spinUntil(
      F, [](Value V) { return V != 0; }, MemOrder::Acquire);
}

Task<void> infiniteStores(Env &E, Loc X) {
  for (;;)
    co_await E.store(X, 1, MemOrder::Relaxed);
}

Task<void> selfPruner(Env &E, Loc X) {
  Timestamp Prev = ~0u;
  for (;;) {
    co_await E.load(X, MemOrder::Relaxed);
    Timestamp Ts = E.M.lastReadTs(E.Tid);
    if (Ts == Prev)
      co_await E.prune();
    Prev = Ts;
  }
}

} // namespace

TEST(SchedulerTest, SpinUntilWakesOnSignal) {
  Value Got = 0;
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Got = 0;
        Loc F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, waiter(E0, F, &Got));
        Env &E1 = S.newThread();
        S.start(E1, signaler(E1, F));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        EXPECT_EQ(Got, 7u);
      });
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_GT(Sum.Executions, 0u);
}

TEST(SchedulerTest, UnsatisfiableSpinIsDeadlock) {
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Loc F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, eternalSpinner(E0, F));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Deadlock);
      });
  EXPECT_EQ(Sum.Deadlocks, Sum.Executions);
}

TEST(SchedulerTest, DivergentThreadHitsStepLimit) {
  Explorer::Options Opts;
  Opts.MaxStepsPerExec = 100;
  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, infiniteStores(E0, X));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::StepLimit);
      });
  EXPECT_EQ(Sum.Diverged, Sum.Executions);
  EXPECT_EQ(Sum.Executions, 1u);
}

TEST(SchedulerTest, PruneCutsStutterBranches) {
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, selfPruner(E0, X));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Pruned);
      });
  EXPECT_EQ(Sum.Pruned, Sum.Executions);
  EXPECT_EQ(Sum.Executions, 1u);
  EXPECT_TRUE(Sum.Exhausted);
}

TEST(SchedulerTest, PreemptionBoundZeroRunsThreadsAtomically) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 0;
  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
        Env &E0 = S.newThread();
        S.start(E0, storeTwice(E0, A, A + 1));
        Env &E1 = S.newThread();
        S.start(E1, storeTwice(E1, B, B + 1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
      });
  // Only the initial thread choice branches: T0-first or T1-first.
  EXPECT_EQ(Sum.Executions, 2u);
  EXPECT_TRUE(Sum.Exhausted);
}

TEST(SchedulerTest, PreemptionBoundOrdersSubsetOfUnbounded) {
  auto Count = [](unsigned Bound) {
    Explorer::Options Opts;
    Opts.PreemptionBound = Bound;
    return explore(
               Opts,
               [&](Machine &M, Scheduler &S) {
                 Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
                 Env &E0 = S.newThread();
                 S.start(E0, storeTwice(E0, A, A + 1));
                 Env &E1 = S.newThread();
                 S.start(E1, storeTwice(E1, B, B + 1));
               },
               [](Machine &, Scheduler &, Scheduler::RunResult) {})
        .Executions;
  };
  uint64_t C0 = Count(0), C1 = Count(1), CInf = Count(~0u);
  EXPECT_LT(C0, C1);
  EXPECT_LE(C1, CInf);
  EXPECT_EQ(CInf, 20u);
}

TEST(ExplorerTest, RandomModeRunsRequestedCount) {
  Explorer::Options Opts;
  Opts.ExploreMode = Explorer::Mode::Random;
  Opts.RandomRuns = 37;
  Opts.Seed = 5;
  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Loc A = M.alloc("a"), B = M.alloc("b");
        Env &E0 = S.newThread();
        S.start(E0, storeTwice(E0, A, B));
        Env &E1 = S.newThread();
        S.start(E1, storeTwice(E1, B, A));
      },
      [](Machine &, Scheduler &, Scheduler::RunResult) {});
  EXPECT_EQ(Sum.Executions, 37u);
  EXPECT_FALSE(Sum.Exhausted);
}

TEST(ExplorerTest, RandomModeRecordsReplayableTraces) {
  // Regression: Mode::Random used to discard decisions, so
  // currentDecisions() returned an empty/stale trace and sampled failures
  // were unreproducible. Every sampled run must now be replayable to the
  // identical RunResult and outcome.
  Explorer::Options Opts;
  Opts.ExploreMode = Explorer::Mode::Random;
  Opts.RandomRuns = 40;
  Opts.Seed = 9;
  Explorer Ex(Opts);
  MpLitmusOut O;
  std::vector<std::vector<unsigned>> Traces;
  std::vector<std::pair<Value, Value>> Outcomes;
  std::vector<Scheduler::RunResult> Results;
  while (Ex.beginExecution()) {
    O = MpLitmusOut();
    Machine M(Ex);
    Scheduler S(M, Ex);
    Loc X = M.alloc("x"), F = M.alloc("f");
    Env &E0 = S.newThread();
    S.start(E0, mpWriter(E0, X, F, MemOrder::Relaxed));
    Env &E1 = S.newThread();
    S.start(E1, mpReader(E1, X, F, MemOrder::Relaxed, O));
    auto R = S.run(Opts.MaxStepsPerExec);
    EXPECT_FALSE(Ex.currentDecisions().empty())
        << "random-mode decisions must be recorded";
    Traces.push_back(Ex.currentDecisions());
    Outcomes.push_back({O.Flag, O.Data});
    Results.push_back(R);
    Ex.endExecution(R);
  }
  ASSERT_EQ(Traces.size(), 40u);

  auto Shared = std::make_shared<MpLitmusOut>();
  Workload W(Explorer::Options{}, [Shared](Machine &M, Scheduler &S) {
    *Shared = MpLitmusOut();
    Loc X = M.alloc("x"), F = M.alloc("f");
    Env &E0 = S.newThread();
    S.start(E0, mpWriter(E0, X, F, MemOrder::Relaxed));
    Env &E1 = S.newThread();
    S.start(E1, mpReader(E1, X, F, MemOrder::Relaxed, *Shared));
  });
  for (size_t I = 0; I != Traces.size(); ++I) {
    ReplayResult RR = replay(W, Traces[I]);
    EXPECT_EQ(RR.Run, Results[I]) << "trace " << I;
    EXPECT_FALSE(RR.Diverged) << "trace " << I;
    EXPECT_EQ(Shared->Flag, Outcomes[I].first) << "trace " << I;
    EXPECT_EQ(Shared->Data, Outcomes[I].second) << "trace " << I;
  }
}

TEST(ExplorerTest, FormatTraceNamesTagsAndArities) {
  Explorer Ex;
  ASSERT_TRUE(Ex.beginExecution());
  Machine M(Ex);
  Scheduler S(M, Ex);
  Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
  Env &E0 = S.newThread();
  S.start(E0, storeTwice(E0, A, A + 1));
  Env &E1 = S.newThread();
  S.start(E1, storeTwice(E1, B, B + 1));
  auto R = S.run();
  EXPECT_EQ(R, Scheduler::RunResult::Done);
  std::string Pretty = Ex.formatTrace();
  EXPECT_NE(Pretty.find("#0 sched (2 alts) -> 0"), std::string::npos)
      << Pretty;
  EXPECT_EQ(static_cast<size_t>(
                std::count(Pretty.begin(), Pretty.end(), '\n')),
            Ex.currentDecisions().size());
  Ex.endExecution(R);
}

TEST(ExplorerTest, SummaryStringMentionsCounts) {
  Explorer::Summary Sum;
  Sum.Executions = 3;
  Sum.Exhausted = true;
  std::string Str = Sum.str();
  EXPECT_NE(Str.find("executions=3"), std::string::npos);
  EXPECT_NE(Str.find("exhaustive"), std::string::npos);
}

TEST(ExplorerTest, SummaryJsonReportsCopyOnWriteCounters) {
  // Two threads storing twice: a copy-on-write-safe body whose sibling
  // executions resume from snapshots instead of the root.
  Workload::Body B{[](Machine &M, Scheduler &S) {
    Loc X = M.alloc("x"), Y = M.alloc("y");
    for (int T = 0; T != 2; ++T) {
      Env &E = S.newThread();
      S.start(E, storeTwice(E, X, Y));
    }
  }};
  B.CowSafe = true;
  Explorer::Summary Sum = explore(Workload(Explorer::Options{}, B));
  ASSERT_GT(Sum.Perf.CowResumes, 0u);
  ASSERT_GT(Sum.Perf.StepsLogical, Sum.Perf.StepsExecuted);
  std::string J = Sum.json();
  auto Field = [&](const char *Key, uint64_t V) {
    return "\"" + std::string(Key) + "\":" + std::to_string(V);
  };
  EXPECT_NE(J.find(Field("steps_executed", Sum.Perf.StepsExecuted)),
            std::string::npos) << J;
  EXPECT_NE(J.find(Field("steps_logical", Sum.Perf.StepsLogical)),
            std::string::npos) << J;
  EXPECT_NE(J.find(Field("cow_resumes", Sum.Perf.CowResumes)),
            std::string::npos) << J;
  EXPECT_NE(J.find(Field("root_runs", Sum.Perf.RootRuns)), std::string::npos)
      << J;
}
