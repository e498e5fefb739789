//===-- perfbench/SelfTest.cpp - The benchmark measures what ships --------===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Path-equivalence test, at a small size: the benchmark's per-input code
/// must reach the verdicts the checker's own drivers reach.
///
///  * sweep and deep: the inputs of 2 scenarios per library, untraced and
///    traced, folded in check::runSweep's order, give runSweep's
///    fingerprint for the same configuration.
///  * mutants: for all 9 mutants, the benchmark's hunt reproduces
///    check::huntMutant's killer scenario index, rule and shrunk
///    counterexample.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>

using namespace compass;
using namespace compass::check;
using namespace perfbench;

namespace {

constexpr uint64_t Seed = 1;
constexpr unsigned PerLib = 2;

int sweepEquivalence(Kind K) {
  Config C = configFor(K);
  SweepOptions O;
  O.Seed = Seed;
  O.ScenariosPerLib = PerLib;
  O.Workers = C.Workers;
  O.MaxExecutionsPerScenario = C.MaxExecs;
  O.Gen = C.Gen;
  uint64_t Want = runSweep(O).fingerprint();

  int Fails = 0;
  for (bool Traced : {false, true}) {
    Tracer T;
    uint64_t Fp = SweepReport{}.Fp; // FNV offset basis, then the seed
    mixFingerprint(Fp, Seed);
    for (unsigned Li = 0; Li != NumLibs; ++Li)
      for (unsigned I = 0; I != PerLib; ++I) {
        Input In = scenarioInput(C, Seed, allLibs()[Li], I);
        Outcome Out = runInput(C, In, Traced ? &T : nullptr);
        if (!Out.Wrong.empty()) {
          std::printf("FAIL %s: %s\n", kindName(K), Out.Wrong.c_str());
          ++Fails;
        }
        foldSweepFingerprint(Fp, In.L, I, Out.Sum);
      }
    bool Ok = Fp == Want;
    Fails += !Ok;
    std::printf("%s %s %s fingerprint 0x%llx, runSweep 0x%llx\n",
                Ok ? "ok  " : "FAIL", kindName(K),
                Traced ? "traced" : "untraced", (unsigned long long)Fp,
                (unsigned long long)Want);
  }
  return Fails;
}

int mutantEquivalence() {
  Config C = configFor(Kind::Mutants);
  C.Mut.Seed = Seed;
  int Fails = 0;
  for (unsigned M = 1; M != NumMutations; ++M) {
    Mutation Mut = static_cast<Mutation>(M);
    MutantReport Ref = huntMutant(Mut, C.Mut);
    Input In = mutantInput(C, Seed, Mut);
    for (bool Traced : {false, true}) {
      Tracer T;
      Outcome Out = runInput(C, In, Traced ? &T : nullptr);
      bool Ok = Out.Wrong.empty() && Ref.Killed && Out.Killed &&
                Out.KillerIndex + 1 == Ref.ScenariosTried &&
                Out.Rule == Ref.Rule &&
                Out.Shrunk.Min.str() == Ref.Shrunk.Min.str() &&
                Out.Shrunk.Decisions == Ref.Shrunk.Decisions;
      Fails += !Ok;
      std::printf("%s mutants %s %s: killer #%u rule %s, huntMutant #%u "
                  "rule %s%s%s\n",
                  Ok ? "ok  " : "FAIL", Traced ? "traced" : "untraced",
                  mutationName(Mut), Out.KillerIndex, Out.Rule.c_str(),
                  Ref.ScenariosTried - 1, Ref.Rule.c_str(),
                  Out.Wrong.empty() ? "" : "; ", Out.Wrong.c_str());
    }
  }
  return Fails;
}

} // namespace

int perfbench::selfTest() {
  int Fails = sweepEquivalence(Kind::Sweep) + sweepEquivalence(Kind::Deep) +
              mutantEquivalence();
  std::printf("%s: %d failure(s)\n", Fails ? "FAILED" : "passed", Fails);
  return Fails;
}
