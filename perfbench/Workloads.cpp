//===-- perfbench/Workloads.cpp - Benchmark inputs and their runs ---------===//

#include "Workloads.h"

#include <sstream>

using namespace compass;
using namespace compass::check;
using namespace perfbench;

const char *perfbench::kindName(Kind K) {
  switch (K) {
  case Kind::Sweep:
    return "sweep";
  case Kind::Deep:
    return "deep";
  case Kind::Mutants:
    return "mutants";
  }
  return "?";
}

bool perfbench::parseKind(const std::string &S, Kind &Out) {
  for (Kind K : {Kind::Sweep, Kind::Deep, Kind::Mutants})
    if (S == kindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

/// Hunt scenarios generated up front per mutants input; a hunt that needs
/// more generates them as it goes, like check::huntMutant.
static constexpr unsigned HuntPrefetch = 2;

Config perfbench::configFor(Kind K) {
  Config C;
  C.K = K;
  switch (K) {
  case Kind::Sweep:
    // `compass_check sweep`'s generator, cap, source sets, auto engine and
    // one worker, with two threads per scenario: with three, some trees
    // exceed any cap a run can afford, and every input must come to a
    // verdict (README.md). The largest tree in 16,000 sampled scenarios
    // had 24,309 executions.
    C.Gen.MinThreads = C.Gen.MaxThreads = 2;
    C.MaxExecs = 200000;
    C.PoolSize = 16384;
    C.TracedInputs = 8 * 600;
    break;
  case Kind::Deep:
    // Preemption bound 3 over three threads of one op each: with two ops a
    // thread, some trees exceed any cap a run can afford. The largest tree
    // in 6,400 sampled scenarios had 233,272 executions.
    C.Gen.MinThreads = C.Gen.MaxThreads = 3;
    C.Gen.MinOpsPerThread = C.Gen.MaxOpsPerThread = 1;
    C.Gen.MinPreemptions = C.Gen.MaxPreemptions = 3;
    C.Workers = 2;
    C.MaxExecs = 1000000;
    C.PoolSize = 2048;
    C.TracedInputs = 8 * 48;
    // p99 would leave about ten inputs beyond it in a 40 s run.
    C.TailPct = 95;
    break;
  case Kind::Mutants:
    // check::huntMutant's hunt and shrink budgets, caps aside.
    C.Mut.MaxExecutionsPerScenario = 5000;
    C.Mut.Shr.MaxExecutionsPerCandidate = 5000;
    C.PoolSize = 9 * 320;
    C.TracedInputs = 9 * 100;
    // p99 leaves only about 20 inputs beyond it here, and moved by a
    // quarter between runs; p95 leaves about 100 (README.md).
    C.TailPct = 95;
    break;
  }
  return C;
}

Input perfbench::scenarioInput(const Config &C, uint64_t Seed, Lib L,
                               unsigned Index) {
  Input In;
  In.L = L;
  In.Seed = Seed;
  In.S = generateScenario(L, scenarioSeed(Seed, L, Index), C.Gen);
  In.LinAborts = std::make_shared<std::atomic<uint64_t>>(0);
  In.W = std::make_shared<sim::Workload>(makeWorkload(
      In.S, Mutation::None,
      scenarioOptions(In.S, C.MaxExecs, C.Workers,
                      sim::ReductionMode::SourceSet, sim::EnginePath::Auto),
      In.LinAborts));
  return In;
}

Input perfbench::mutantInput(const Config &C, uint64_t Seed, Mutation M) {
  Input In;
  In.Mut = M;
  In.L = mutationLib(M);
  In.Seed = Seed;
  GenOptions Gen = GenOptions::hunting();
  for (unsigned I = 0; I != HuntPrefetch && I != C.Mut.MaxScenarios; ++I)
    In.Hunt.push_back(generateScenario(In.L, scenarioSeed(Seed, In.L, I), Gen));
  return In;
}

Input perfbench::makeInput(const Config &C, uint64_t Seed, unsigned J) {
  if (C.K == Kind::Mutants) {
    // Mutation 0 is None; one hunt seed per round of the 9 mutants.
    constexpr unsigned N = NumMutations - 1;
    return mutantInput(C, Seed * 100000 + J / N,
                       static_cast<Mutation>(1 + J % N));
  }
  return scenarioInput(C, Seed, allLibs()[J % NumLibs], J / NumLibs);
}

namespace {

double msSince(uint64_t T0) { return (nowNs() - T0) / 1e6; }

Outcome runScenario(const Input &In, Tracer *T, uint32_t Id) {
  Outcome O;
  uint64_t Lin0 = In.LinAborts->load();
  uint64_t T0 = nowNs();
  if (!T) {
    O.Sum = sim::exploreResumable(*In.W, sim::ExploreControl{}).Sum;
  } else {
    Scope InS(T, "input", 0, Id);
    Scope Ex(T, "sim.explore", InS.id(), Id);
    O.Sum = sim::exploreResumable(T->wrap(*In.W, Ex.id(), Id),
                                  sim::ExploreControl{})
                .Sum;
  }
  O.Ms = msSince(T0);
  O.LinAborts = In.LinAborts->load() - Lin0;
  O.Decided = O.Sum.Exhausted;
  const sim::Explorer::Summary &S = O.Sum;
  if (S.Violations || S.Races || S.Deadlocks || S.HasViolation) {
    TraceDiagnosis D = diagnoseTrace(In.S, Mutation::None,
                                     scenarioOptions(In.S, 1, 1),
                                     S.firstViolationDecisions());
    O.Wrong = "pristine " + In.S.str() + ": " + D.V.str();
  }
  return O;
}

Outcome runMutant(const Config &C, const Input &In, Tracer *T, uint32_t Id) {
  Outcome O;
  uint64_t T0 = nowNs();
  {
    Scope InS(T, "input", 0, Id);
    for (unsigned I = 0; I != C.Mut.MaxScenarios; ++I) {
      Scenario Late; // Past the prefetched ones, generated as huntMutant does.
      if (I >= In.Hunt.size())
        Late = generateScenario(In.L, scenarioSeed(In.Seed, In.L, I),
                                GenOptions::hunting());
      const Scenario &S = I < In.Hunt.size() ? In.Hunt[I] : Late;
      std::vector<unsigned> Trace;
      bool Fails;
      if (!T) {
        Fails = scenarioFails(S, In.Mut, C.Mut.MaxExecutionsPerScenario, Trace,
                              C.Mut.Reduction);
      } else {
        // scenarioFails' own exploration, with the body wrapped.
        Scope H(T, "check.hunt", InS.id(), Id);
        sim::Explorer::Options Opts = scenarioOptions(
            S, C.Mut.MaxExecutionsPerScenario, 1, C.Mut.Reduction);
        Opts.StopOnViolation = true;
        sim::Explorer::Summary Sum;
        {
          Scope Ex(T, "sim.explore", H.id(), Id);
          Sum = sim::exploreSerial(
              T->wrap(makeWorkload(S, In.Mut, Opts), Ex.id(), Id));
        }
        Fails = Sum.HasViolation;
        if (Fails)
          Trace = Sum.firstViolationDecisions();
        mergeSummary(O.Sum, Sum);
      }
      if (!Fails)
        continue;
      O.Killed = true;
      O.KillerIndex = I;
      O.KillerDecisions = Trace;
      {
        Scope Sh(T, "check.shrink", InS.id(), Id);
        O.Shrunk = shrinkCounterexample(S, In.Mut, Trace, C.Mut.Shr);
      }
      O.Rule = O.Shrunk.V.Rule;
      break;
    }
  }
  O.Ms = msSince(T0);
  O.Decided = O.Killed;
  if (O.Killed) {
    // The kill must name a rule, and its shrunk counterexample must still
    // fail when replayed on its own.
    TraceDiagnosis D = diagnoseTrace(O.Shrunk.Min, In.Mut,
                                     scenarioOptions(O.Shrunk.Min, 1, 1),
                                     O.Shrunk.Decisions);
    if (O.Rule.empty())
      O.Wrong = std::string(mutationName(In.Mut)) + ": kill without a rule";
    else if (!D.failing())
      O.Wrong = std::string(mutationName(In.Mut)) +
                ": shrunk counterexample passes on replay: " +
                O.Shrunk.Min.str();
  }
  return O;
}

} // namespace

Outcome perfbench::runInput(const Config &C, const Input &In, Tracer *T,
                            uint32_t InputId) {
  return C.K == Kind::Mutants ? runMutant(C, In, T, InputId)
                              : runScenario(In, T, InputId);
}

std::string perfbench::compareTraced(const Config &C, const Outcome &U,
                                     const Outcome &T) {
  std::ostringstream OS;
  if (C.K == Kind::Mutants) {
    if (U.Killed != T.Killed || U.KillerIndex != T.KillerIndex ||
        U.KillerDecisions != T.KillerDecisions || U.Rule != T.Rule ||
        U.Shrunk.Min.str() != T.Shrunk.Min.str() ||
        U.Shrunk.Decisions != T.Shrunk.Decisions)
      OS << "traced hunt differs: killer #" << U.KillerIndex << " vs #"
         << T.KillerIndex << ", rule " << U.Rule << " vs " << T.Rule;
    return OS.str();
  }
  const auto &A = U.Sum, &B = T.Sum;
  // A truncated tree's explored subset depends on worker timing, so with
  // several workers only exhausted cores are comparable.
  bool Comparable = C.Workers == 1 || (A.Exhausted && B.Exhausted);
  if (A.Exhausted != B.Exhausted || (Comparable && !A.coreEquals(B)))
    OS << "traced summary core differs: " << A.Executions << " vs "
       << B.Executions << " executions";
  // Which executions resume from a snapshot is fixed for one worker; with
  // several it follows work stealing, but copy-on-write must stay on.
  bool CowSame = C.Workers == 1
                     ? A.Perf.CowResumes == B.Perf.CowResumes &&
                           A.Perf.RootRuns == B.Perf.RootRuns
                     : (A.Perf.CowResumes > 0) == (B.Perf.CowResumes > 0);
  if (!CowSame)
    OS << (OS.tellp() ? "; " : "") << "copy-on-write split differs: "
       << A.Perf.CowResumes << "/" << A.Perf.RootRuns << " vs "
       << B.Perf.CowResumes << "/" << B.Perf.RootRuns;
  return OS.str();
}

void perfbench::mergeSummary(sim::Explorer::Summary &Acc,
                             const sim::Explorer::Summary &S) {
  Acc.mergeCore(S);
  auto &A = Acc.Perf;
  const auto &P = S.Perf;
  A.StepsExecuted += P.StepsExecuted;
  A.StepsLogical += P.StepsLogical;
  A.CowResumes += P.CowResumes;
  A.RootRuns += P.RootRuns;
  A.Donations += P.Donations;
  A.PeakQueue = std::max(A.PeakQueue, P.PeakQueue);
  A.PeakFrontier = std::max(A.PeakFrontier, P.PeakFrontier);
}

void perfbench::mixFingerprint(uint64_t &Fp, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I) {
    Fp ^= (V >> (8 * I)) & 0xff;
    Fp *= 1099511628211ull;
  }
}

void perfbench::foldSweepFingerprint(uint64_t &Fp, Lib L, unsigned Index,
                                     const sim::Explorer::Summary &Sum) {
  auto Mix = [&Fp](uint64_t V) { mixFingerprint(Fp, V); };
  Mix(static_cast<uint64_t>(L));
  Mix(Index);
  Mix(Sum.Exhausted);
  if (Sum.Exhausted) {
    Mix(Sum.Executions);
    Mix(Sum.Completed);
    Mix(Sum.Races);
    Mix(Sum.Deadlocks);
    Mix(Sum.Violations);
    Mix(Sum.SleepPruned);
    Mix(Sum.RfPruned);
    Mix(Sum.SourcePruned);
    Mix(Sum.CacheHits);
    Mix(Sum.MaxDepth);
  }
}
