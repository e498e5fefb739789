//===-- tests/ReductionTest.cpp - Reduction-mode equivalence --------------===//
//
// The partial-order reductions (sim/Reduction.h, DESIGN.md §8/§12) must be
// pure state-space optimizations: they may skip executions, never
// verdicts. The suite checks both modes (none, the oracle, and source) at
// three layers:
//
//  * accounting — the reduction counters are zero under Reduction::None,
//    positive on contended workloads under SourceSet, and the execution
//    counters always reconcile (Executions == Completed + Deadlocks +
//    Races + Diverged + Pruned + SleepPruned + RfPruned; SourcePruned
//    counts skips that never burn an execution);
//  * soundness — reduced exploration still reaches the weak-behavior
//    violations of the MP litmus, and for every shrunk counterexample in
//    tests/corpus/ both hunts report the identical violation verdict
//    (rule + culprit library), while corpus decision traces keep replaying
//    to a failing verdict (replay never prunes);
//  * determinism — reduced summaries (coreEquals) and the reduced sweep
//    fingerprint are bit-identical across 1/2/4 workers and across the
//    copy-on-write / root-replay engine paths, extending the ParallelTest
//    determinism suite to the reduced mode.
//
//===----------------------------------------------------------------------===//

#include "SimTestUtil.h"
#include "check/Conformance.h"
#include "check/Shrinker.h"
#include "lib/MsQueue.h"
#include "lib/TreiberStackEbr.h"
#include "spec/Consistency.h"
#include "spec/SpecMonitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

#ifndef COMPASS_CORPUS_DIR
#error "COMPASS_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

/// Counter identity every summary must satisfy: each execution ends in
/// exactly one of these bins. SourcePruned is deliberately absent — it
/// counts alternatives skipped *without* starting an execution, so it must
/// never leak into the execution total.
void expectReconciled(const Explorer::Summary &S, const char *Name) {
  EXPECT_EQ(S.Executions, S.Completed + S.Deadlocks + S.Races + S.Diverged +
                              S.Pruned + S.SleepPruned + S.RfPruned)
      << Name << ": " << S.str();
}

//===----------------------------------------------------------------------===//
// Workloads (reduction-aware Check: pruned runs are not violations)
//===----------------------------------------------------------------------===//

Task<void> mpWriter(Env &E, Loc X, Loc F, MemOrder StoreO) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, StoreO);
}

Task<void> mpReader(Env &E, Loc X, Loc F, MemOrder LoadO, Value *Flag,
                    Value *Data) {
  *Flag = co_await E.load(F, LoadO);
  *Data = co_await E.load(X, MemOrder::Relaxed);
}

/// Message-passing litmus; with relaxed orderings the "no stale data"
/// check has violating executions the reduction must not lose.
Workload mpWorkload(unsigned Workers, MemOrder StoreO, MemOrder LoadO,
                    ReductionMode Red) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.Reduction = Red;
  return Workload(Opts, [StoreO, LoadO]() -> Workload::Body {
    auto Flag = std::make_shared<Value>();
    auto Data = std::make_shared<Value>();
    Workload::Body B{
        [=](Machine &M, Scheduler &S) {
          *Flag = *Data = 0;
          Loc X = M.alloc("x"), F = M.alloc("f");
          Env &E0 = S.newThread();
          S.start(E0, mpWriter(E0, X, F, StoreO));
          Env &E1 = S.newThread();
          S.start(E1, mpReader(E1, X, F, LoadO, Flag.get(), Data.get()));
        },
        [Flag, Data](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return true; // sleep-pruned / pruned runs are not violations
          return !(*Flag == 1 && *Data == 0); // no stale data
        }};
    B.CowSafe = true; // sinks are rewritten by the fast-forward resume
    return B;
  });
}

/// The E2 MS-queue configuration with a selectable reduction.
Workload msQueueWorkload(unsigned Workers, ReductionMode Red) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 500'000;
  Opts.Reduction = Red;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::MsQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    Workload::Body B{
        [St](Machine &M, Scheduler &S) {
          if (!St->Mon)
            St->Mon = std::make_unique<spec::SpecMonitor>();
          St->Mon->beginExecution(M);
          St->Q = std::make_unique<lib::MsQueue>(M, *St->Mon, "q");
          St->Got0.clear();
          St->Got1.clear();
          Env &E0 = S.newThread();
          S.start(E0, test::enqueuerThread(E0, *St->Q, {1, 2}));
          Env &E1 = S.newThread();
          S.start(E1, test::dequeuerThread(E1, *St->Q, 1, &St->Got0));
          Env &E2 = S.newThread();
          S.start(E2, test::dequeuerThread(E2, *St->Q, 1, &St->Got1));
        },
        [St](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return R == Scheduler::RunResult::Pruned ||
                   R == Scheduler::RunResult::SleepPruned ||
                   R == Scheduler::RunResult::RfPruned;
          return spec::checkQueueConsistent(St->Mon->graph(), St->Q->objId())
              .ok();
        }};
    // Copy-on-write client state (same pattern as the harness bodies):
    // monitor rewinds by epoch, result sinks restored whole.
    struct CowState {
      spec::SpecMonitor::Epoch MonEpoch;
      std::vector<Value> Got0, Got1;
    };
    B.CowSave = [St](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<CowState>();
      auto &C = *std::static_pointer_cast<CowState>(Slot);
      C.MonEpoch = St->Mon->epoch();
      C.Got0 = St->Got0;
      C.Got1 = St->Got1;
    };
    B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
      const auto &C = *std::static_pointer_cast<CowState>(Slot);
      St->Mon->trimToEpoch(C.MonEpoch);
      St->Got0 = C.Got0;
      St->Got1 = C.Got1;
    };
    B.CowSkipFinished = true;
    return B;
  });
}

Task<void> ebrPushThenPop(Env &E, lib::TreiberStackEbr &S) {
  auto P = S.push(E, 1);
  co_await P;
  auto Q = S.pop(E);
  Value V = co_await Q;
  (void)V;
}

Task<void> ebrPopOnce(Env &E, lib::TreiberStackEbr &S) {
  auto Q = S.tryPop(E);
  Value V = co_await Q;
  (void)V;
}

/// An EBR-reclaiming stack under contention: the pin/retire/advance ghost
/// steps (Reclaim/Free footprints) must stay sound under the source-set
/// reduction — a mis-declared independence would make the summary
/// worker-count dependent or lose a reclamation fault.
Workload ebrStackWorkload(unsigned Workers, ReductionMode Red) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 2'000'000;
  Opts.Reduction = Red;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::TreiberStackEbr> S;
    };
    auto St = std::make_shared<State>();
    return {
        [St](Machine &M, Scheduler &S) {
          St->Mon = std::make_unique<spec::SpecMonitor>();
          St->S =
              std::make_unique<lib::TreiberStackEbr>(M, *St->Mon, "s", 2);
          Env &E0 = S.newThread();
          S.start(E0, ebrPushThenPop(E0, *St->S));
          Env &E1 = S.newThread();
          S.start(E1, ebrPopOnce(E1, *St->S));
        },
        [](Machine &, Scheduler &, Scheduler::RunResult R) {
          // Any reclamation fault surfaces as RunResult::Race and is
          // counted by the summary; completed runs are fine as-is.
          return R != Scheduler::RunResult::Race;
        }};
  });
}

//===----------------------------------------------------------------------===//
// Corpus loading
//===----------------------------------------------------------------------===//

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Ent :
       std::filesystem::directory_iterator(COMPASS_CORPUS_DIR))
    if (Ent.is_regular_file() && Ent.path().extension() == ".corpus")
      Files.push_back(Ent.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

check::CorpusEntry parseFileOrFail(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream OS;
  OS << In.rdbuf();
  check::CorpusEntry E;
  std::string Err;
  EXPECT_TRUE(check::parseCorpusEntry(OS.str(), E, Err))
      << P.filename() << ": " << Err;
  return E;
}

} // namespace

//===----------------------------------------------------------------------===//
// Accounting
//===----------------------------------------------------------------------===//

TEST(ReductionAccounting, SourceSetPrunesAndReconciles) {
  auto Un = explore(msQueueWorkload(1, ReductionMode::None));
  auto Src = explore(msQueueWorkload(1, ReductionMode::SourceSet));
  expectReconciled(Un, "unreduced");
  expectReconciled(Src, "source");
  // The reduction actually fired...
  EXPECT_GT(Src.SleepPruned, 0u) << Src.str();
  EXPECT_GT(Src.SourcePruned, 0u) << Src.str();
  // ...and, pruned stubs being cheap (they stop at the first sleeping
  // step), the reduced run performs strictly fewer executions overall
  // *and* strictly fewer full (completed) ones.
  EXPECT_LT(Src.Executions, Un.Executions)
      << "none: " << Un.str() << "\nsource: " << Src.str();
  EXPECT_LT(Src.Completed, Un.Completed);
  EXPECT_TRUE(Src.Exhausted);
  EXPECT_TRUE(Un.Exhausted);
  // Verdict-equivalent: both clean.
  EXPECT_EQ(Src.Violations, 0u) << Src.str();
  EXPECT_EQ(Un.Violations, 0u) << Un.str();
}

TEST(ReductionAccounting, FreshSchedNodesStartPastPrunedAlternatives) {
  // Source sets create each fresh sched node at its first alternative the
  // reduction does not prune. The pinned values below come from the
  // exploration that started every fresh node at alternative 0, where a
  // pruned alternative 0 cost a sleep-pruned execution: the verdicts, the
  // completed executions and the lex-least violation must not move, and
  // the only work removed is exactly those stub executions — each one now
  // counted as a skipped alternative (SourcePruned) instead.
  struct Pin {
    const char *Name;
    Workload (*Make)(unsigned);
    uint64_t Executions, Completed, Violations, Races, Deadlocks, MaxDepth,
        SleepPruned, SourcePruned;
    std::vector<unsigned> FirstViolation;
  };
  const Pin Pins[] = {
      {"MS queue",
       +[](unsigned W) {
         return msQueueWorkload(W, ReductionMode::SourceSet);
       },
       439, 11, 0, 0, 0, 33, 428, 139, {}},
      {"EBR stack",
       +[](unsigned W) {
         return ebrStackWorkload(W, ReductionMode::SourceSet);
       },
       1717, 1063, 0, 0, 0, 64, 654, 0, {}},
      {"MP rlx",
       +[](unsigned W) {
         return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed,
                           ReductionMode::SourceSet);
       },
       14, 4, 1, 0, 0, 6, 10, 0, {0, 0, 0, 0, 1}},
  };
  for (const Pin &P : Pins)
    for (unsigned Wk : {1u, 2u, 4u}) {
      Explorer::Summary S = explore(P.Make(Wk));
      const std::string Ctx =
          std::string(P.Name) + " workers=" + std::to_string(Wk) + ": " +
          S.str();
      expectReconciled(S, P.Name);
      EXPECT_TRUE(S.Exhausted) << Ctx;
      EXPECT_EQ(S.Completed, P.Completed) << Ctx;
      EXPECT_EQ(S.Violations, P.Violations) << Ctx;
      EXPECT_EQ(S.Races, P.Races) << Ctx;
      EXPECT_EQ(S.Deadlocks, P.Deadlocks) << Ctx;
      EXPECT_EQ(S.MaxDepth, P.MaxDepth) << Ctx;
      EXPECT_EQ(S.firstViolationDecisions(), P.FirstViolation) << Ctx;
      EXPECT_LT(S.Executions, P.Executions) << Ctx;
      EXPECT_LT(S.SleepPruned, P.SleepPruned) << Ctx;
      // Exactly the stubs: as many fewer executions as fewer sleep-pruned
      // ones, each turned into one more skipped alternative.
      EXPECT_EQ(S.Executions - S.SleepPruned, P.Executions - P.SleepPruned)
          << Ctx;
      EXPECT_EQ(S.SourcePruned - P.SourcePruned, P.Executions - S.Executions)
          << Ctx;
    }
}

TEST(ReductionAccounting, BothModesReconcileOnEveryWorkload) {
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet}) {
    for (auto Make :
         {+[](ReductionMode R) { return msQueueWorkload(1, R); },
          +[](ReductionMode R) {
            return mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed, R);
          },
          +[](ReductionMode R) { return ebrStackWorkload(1, R); }}) {
      auto Sum = explore(Make(Red));
      const char *Name = reductionModeName(Red);
      expectReconciled(Sum, Name);
      EXPECT_TRUE(Sum.Exhausted) << Name << ": " << Sum.str();
      if (Red == ReductionMode::None) { // Unreduced: nothing pruned.
        EXPECT_EQ(Sum.SleepPruned + Sum.RfPruned + Sum.SourcePruned, 0u)
            << Sum.str();
      }
      EXPECT_EQ(Sum.CacheHits, 0u) << Name << ": " << Sum.str();
    }
  }
}

TEST(ReductionAccounting, RandomModeIgnoresReductionRequest) {
  Explorer::Options Opts;
  Opts.ExploreMode = Explorer::Mode::Random;
  Opts.RandomRuns = 50;
  Opts.Reduction = ReductionMode::SourceSet;
  Workload W(Opts, [](Machine &M, Scheduler &S) {
    Loc X = M.alloc("x");
    Env &E0 = S.newThread();
    S.start(E0, mpWriter(E0, X, X, MemOrder::Relaxed));
  });
  auto Sum = explore(W);
  EXPECT_EQ(Sum.SleepPruned, 0u);
  EXPECT_EQ(Sum.Executions, 50u);
}

//===----------------------------------------------------------------------===//
// Soundness
//===----------------------------------------------------------------------===//

TEST(ReductionSoundness, WeakMpViolationsSurviveReduction) {
  auto Un = explore(mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed,
                               ReductionMode::None));
  ASSERT_TRUE(Un.HasViolation);
  auto Red = explore(mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed,
                                ReductionMode::SourceSet));
  ASSERT_TRUE(Red.HasViolation)
      << "source sets pruned every stale-data execution: " << Red.str();
  EXPECT_GT(Red.Violations, 0u);

  // The surfaced reduced trace replays (unreduced, as replay always is)
  // to the same failing check.
  Workload W = mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed,
                          ReductionMode::None);
  ReplayResult RR = replay(W, Red.firstViolationDecisions());
  EXPECT_EQ(RR.Run, Scheduler::RunResult::Done);
  EXPECT_FALSE(RR.CheckOk) << "counterexample must reproduce";
  EXPECT_FALSE(RR.Diverged);
}

TEST(ReductionSoundness, CleanMpStaysCleanUnderReduction) {
  auto Red = explore(mpWorkload(1, MemOrder::Release, MemOrder::Acquire,
                                ReductionMode::SourceSet));
  EXPECT_EQ(Red.Violations, 0u) << Red.str();
  EXPECT_TRUE(Red.Exhausted);
}

TEST(ReductionSoundness, CorpusMutantsReportIdenticalVerdicts) {
  // For every shrunk counterexample in tests/corpus/: hunting its scenario
  // reduced and unreduced must find a violation either way, and replaying
  // the respective first failing traces must produce the identical verdict
  // rule for the identical culprit library.
  auto Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const auto &P : Files) {
    check::CorpusEntry E = parseFileOrFail(P);

    auto ruleFor = [&](ReductionMode Red, std::string &Out) {
      std::vector<unsigned> Trace;
      if (!check::scenarioFails(E.S, E.Mut, 200'000, Trace, Red))
        return false;
      // Replay (never reduced) for the structured verdict of the found
      // counterexample.
      check::TraceDiagnosis D = check::diagnoseTrace(
          E.S, E.Mut, check::scenarioOptions(E.S, 1, 1), Trace);
      EXPECT_TRUE(D.failing()) << P.filename();
      Out = D.V.Rule;
      return true;
    };

    std::string UnRule, SrcRule;
    ASSERT_TRUE(ruleFor(ReductionMode::None, UnRule))
        << P.filename() << ": unreduced hunt lost the violation";
    ASSERT_TRUE(ruleFor(ReductionMode::SourceSet, SrcRule))
        << P.filename() << ": source-set hunt lost the violation "
        << "(library " << check::libName(E.S.L) << ")";
    EXPECT_EQ(UnRule, SrcRule)
        << P.filename() << ": verdict rule diverged under source sets for "
        << check::libName(E.S.L);
  }
}

TEST(ReductionSoundness, CorpusTracesReplayUnderReductionDefaults) {
  // diagnoseTrace goes through sim::replay, which never prunes — corpus
  // decision traces stay valid replays no matter the configured mode
  // (including the source-set default).
  for (const auto &P : corpusFiles()) {
    check::CorpusEntry E = parseFileOrFail(P);
    check::TraceDiagnosis D = check::diagnoseTrace(
        E.S, E.Mut,
        check::scenarioOptions(E.S, 1, 1, ReductionMode::SourceSet),
        E.Decisions);
    EXPECT_TRUE(D.failing())
        << P.filename() << ": corpus trace no longer fails; " << D.V.str();
  }
}

//===----------------------------------------------------------------------===//
// Determinism across worker counts (ParallelTest extension)
//===----------------------------------------------------------------------===//

namespace {

void expectReducedDeterministic(Workload (*Make)(unsigned, ReductionMode),
                                ReductionMode Red, const char *Name) {
  auto S1 = explore(Make(1, Red));
  auto S2 = explore(Make(2, Red));
  auto S4 = explore(Make(4, Red));
  expectReconciled(S1, Name);
  // coreEquals covers all reduction counters (SleepPruned, RfPruned,
  // SourcePruned); the explicit checks give readable failures.
  EXPECT_EQ(S1.SleepPruned, S2.SleepPruned) << Name;
  EXPECT_EQ(S1.SleepPruned, S4.SleepPruned) << Name;
  EXPECT_EQ(S1.SourcePruned, S2.SourcePruned) << Name;
  EXPECT_EQ(S1.SourcePruned, S4.SourcePruned) << Name;
  EXPECT_TRUE(S1.coreEquals(S2))
      << Name << "\nserial:   " << S1.str() << "\n2-worker: " << S2.str();
  EXPECT_TRUE(S1.coreEquals(S4))
      << Name << "\nserial:   " << S1.str() << "\n4-worker: " << S4.str();
}

} // namespace

TEST(ReductionDeterminism, ReducedMsQueueAcrossWorkers) {
  expectReducedDeterministic(
      +[](unsigned W, ReductionMode R) { return msQueueWorkload(W, R); },
      ReductionMode::SourceSet, "MS queue source");
}

TEST(ReductionDeterminism, ReducedMpLitmusAcrossWorkers) {
  auto Make = +[](unsigned W, ReductionMode R) {
    return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed, R);
  };
  expectReducedDeterministic(Make, ReductionMode::SourceSet,
                             "MP rlx source");
}

TEST(ReductionDeterminism, ReducedEbrStackAcrossWorkers) {
  // The reclamation workload's ghost steps (Reclaim/Free footprints) must
  // stay sound under source sets: summary core (including SleepPruned and
  // Races) bit-identical at 1/2/4 workers, no faults, no violations...
  auto S1 = explore(ebrStackWorkload(1, ReductionMode::SourceSet));
  auto S2 = explore(ebrStackWorkload(2, ReductionMode::SourceSet));
  auto S4 = explore(ebrStackWorkload(4, ReductionMode::SourceSet));
  expectReconciled(S1, "EBR stack reduced");
  EXPECT_EQ(S1.Races, 0u) << "pristine EBR stack faulted: " << S1.str();
  EXPECT_EQ(S1.Violations, 0u) << S1.str();
  EXPECT_GT(S1.SleepPruned, 0u) << "reduction never fired: " << S1.str();
  EXPECT_TRUE(S1.coreEquals(S2))
      << "serial:   " << S1.str() << "\n2-worker: " << S2.str();
  EXPECT_TRUE(S1.coreEquals(S4))
      << "serial:   " << S1.str() << "\n4-worker: " << S4.str();

  // ... and the reduced sweep fingerprint over *generated* treiber_ebr
  // scenarios is worker-count independent too.
  auto Run = [](unsigned Workers) {
    check::SweepOptions O;
    O.Seed = 7;
    O.ScenariosPerLib = 4;
    O.Workers = Workers;
    O.MaxExecutionsPerScenario = 40000;
    O.Reduction = ReductionMode::SourceSet;
    O.Libs = {check::Lib::TreiberEbr};
    return check::runSweep(O);
  };
  check::SweepReport R1 = Run(1);
  check::SweepReport R2 = Run(2);
  check::SweepReport R4 = Run(4);
  EXPECT_TRUE(R1.clean()) << R1.str();
  EXPECT_EQ(R1.fingerprint(), R2.fingerprint())
      << "serial:\n" << R1.str() << "2 workers:\n" << R2.str();
  EXPECT_EQ(R1.fingerprint(), R4.fingerprint())
      << "serial:\n" << R1.str() << "4 workers:\n" << R4.str();
}

TEST(ReductionDeterminism, ReducedSweepFingerprintAcrossWorkers) {
  auto Run = [](unsigned Workers, ReductionMode Red) {
    check::SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = Workers;
    O.MaxExecutionsPerScenario = 60000;
    O.Reduction = Red;
    O.Libs = {check::Lib::MsQueue, check::Lib::TreiberStack,
              check::Lib::SpscRing, check::Lib::WsDeque};
    return check::runSweep(O);
  };
  check::SweepReport R1 = Run(1, ReductionMode::SourceSet);
  check::SweepReport R2 = Run(2, ReductionMode::SourceSet);
  check::SweepReport R4 = Run(4, ReductionMode::SourceSet);
  EXPECT_TRUE(R1.clean()) << R1.str();
  EXPECT_EQ(R1.fingerprint(), R2.fingerprint())
      << "serial:\n" << R1.str() << "2 workers:\n" << R2.str();
  EXPECT_EQ(R1.fingerprint(), R4.fingerprint())
      << "serial:\n" << R1.str() << "4 workers:\n" << R4.str();

  // The reduced sweep does strictly less work than the unreduced one on
  // the same scenarios, and the modes' fingerprints intentionally differ
  // (they fold different execution counts).
  check::SweepReport Un = Run(1, ReductionMode::None);
  EXPECT_TRUE(Un.clean()) << Un.str();
  EXPECT_LT(R1.totalExecutions(), Un.totalExecutions())
      << "none:\n" << Un.str() << "source:\n" << R1.str();
  EXPECT_NE(R1.fingerprint(), Un.fingerprint());
}

//===----------------------------------------------------------------------===//
// Engine-path A/B under reduction (DESIGN.md Section 11)
//===----------------------------------------------------------------------===//

namespace {

Explorer::Summary exploreWithEngine(Workload W, EnginePath E) {
  W.options().Engine = E;
  return explore(W);
}

} // namespace

TEST(ReductionEngineAB, MsQueueCowEqualsRootReplayAcrossWorkersAndModes) {
  // The copy-on-write engine must be invisible to the reduction: summary
  // cores (including every reduction counter) bit-identical to root
  // replay under both reduction modes at 1/2/4 workers.
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet})
    for (unsigned Wk : {1u, 2u, 4u}) {
      Explorer::Summary Root = exploreWithEngine(msQueueWorkload(Wk, Red),
                                                 EnginePath::RootReplay);
      Explorer::Summary Cow =
          exploreWithEngine(msQueueWorkload(Wk, Red), EnginePath::Auto);
      EXPECT_GT(Cow.Perf.CowResumes, 0u)
          << "red=" << reductionModeName(Red) << " workers=" << Wk
          << ": cow path never engaged";
      EXPECT_TRUE(Root.coreEquals(Cow))
          << "red=" << reductionModeName(Red) << " workers=" << Wk
          << "\nroot: " << Root.str() << "\ncow:  " << Cow.str();
      expectReconciled(Cow, "MS queue cow A/B");
    }
}

TEST(ReductionEngineAB, ReducedMpViolationsIdenticalAcrossEngines) {
  // Violation-bearing workload: the reduced cow run surfaces the identical
  // violation set and first violating trace as reduced root replay.
  for (unsigned Wk : {1u, 2u, 4u}) {
    const ReductionMode Red = ReductionMode::SourceSet;
    Explorer::Summary Root = exploreWithEngine(
        mpWorkload(Wk, MemOrder::Relaxed, MemOrder::Relaxed, Red),
        EnginePath::RootReplay);
    Explorer::Summary Cow = exploreWithEngine(
        mpWorkload(Wk, MemOrder::Relaxed, MemOrder::Relaxed, Red),
        EnginePath::Auto);
    ASSERT_TRUE(Root.HasViolation);
    EXPECT_TRUE(Root.coreEquals(Cow))
        << "workers=" << Wk << "\nroot: " << Root.str()
        << "\ncow:  " << Cow.str();
    EXPECT_EQ(Root.firstViolationDecisions(), Cow.firstViolationDecisions())
        << "workers=" << Wk;
  }
}
