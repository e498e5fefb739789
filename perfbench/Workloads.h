//===-- perfbench/Workloads.h - Benchmark inputs and their runs -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads and the code that brings one input to a verdict.
/// Everything goes through the checker's public API, along the same calls
/// `compass_check sweep` and `compass_check mutants` make:
///
///  * sweep / deep: an input is one generated scenario, explored with
///    check::makeWorkload + sim::exploreResumable (as check::runSweep
///    does); its verdict is an exhausted decision tree.
///  * mutants: an input is one (mutant, seed) pair, hunted with
///    check::scenarioFails over GenOptions::hunting() scenarios (as
///    check::huntMutant does) and shrunk with check::shrinkCounterexample;
///    its verdict is the shrunk counterexample.
///
/// With a Tracer, the same input runs with wrapped bodies and spans instead
/// (see Trace.h); the hunt then calls sim::exploreSerial on the wrapped
/// form of the workload scenarioFails builds, so its Summary is visible.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"
#include "check/Conformance.h"
#include "sim/ParallelExplorer.h"

#include <string>
#include <vector>

namespace perfbench {

namespace check = compass::check;

enum class Kind { Sweep, Deep, Mutants };

const char *kindName(Kind K);
bool parseKind(const std::string &S, Kind &Out);

/// Fixed configuration of one workload.
struct Config {
  Kind K = Kind::Sweep;
  check::GenOptions Gen;
  unsigned Workers = 1;
  /// Per-input execution cap (sweep/deep); a tree that hits it is
  /// truncated and its input undecided.
  uint64_t MaxExecs = 200000;
  /// Hunt and shrink budgets (mutants).
  check::MutationOptions Mut;
  /// Inputs generated up front in set-up.
  unsigned PoolSize = 0;
  /// Inputs of the traced run: a fixed set, so that its totals compare
  /// between runs and commits. Sized for a traced run of 30-40 s.
  unsigned TracedInputs = 0;
  /// Reported tail percentile (at least ten inputs beyond it in every run
  /// of the benchmark's length).
  double TailPct = 99;
};

Config configFor(Kind K);

/// One benchmark input.
struct Input {
  check::Lib L = check::Lib::MsQueue;
  uint64_t Seed = 0; ///< Sweep seed, or the mutant's hunt seed.
  check::Mutation Mut = check::Mutation::None;
  check::Scenario S; ///< sweep/deep: the scenario to explore.
  /// mutants: the first hunt scenarios, generated up front.
  std::vector<check::Scenario> Hunt;
  /// sweep/deep: the workload built for S, and its linearization-budget
  /// overrun counter.
  std::shared_ptr<sim::Workload> W;
  std::shared_ptr<std::atomic<uint64_t>> LinAborts;
};

/// The \p J-th input of workload \p C under benchmark seed \p Seed.
/// sweep/deep inputs cycle through the 8 libraries; mutants inputs cycle
/// through the 9 mutants, one hunt seed per round.
Input makeInput(const Config &C, uint64_t Seed, unsigned J);

/// A sweep/deep input for library \p L's \p Index-th scenario.
Input scenarioInput(const Config &C, uint64_t Seed, check::Lib L,
                    unsigned Index);

/// A mutants input.
Input mutantInput(const Config &C, uint64_t Seed, check::Mutation M);

/// What one input came to.
struct Outcome {
  double Ms = 0;        ///< Input start to verdict.
  bool Decided = false; ///< Exhausted tree / killed mutant.
  std::string Wrong;    ///< Non-empty: a wrong verdict, explained.
  uint64_t LinAborts = 0;

  /// sweep/deep: the exploration summary. mutants, traced: the hunt
  /// explorations' summaries, cores merged and perf counters summed.
  sim::Explorer::Summary Sum;

  // mutants
  bool Killed = false;
  unsigned KillerIndex = 0; ///< Hunt scenario index of the kill.
  std::vector<unsigned> KillerDecisions;
  std::string Rule;
  check::ShrinkResult Shrunk;
};

/// Brings \p In to a verdict and checks it. With \p T, runs the traced
/// form and records spans under input id \p InputId.
Outcome runInput(const Config &C, const Input &In, Tracer *T = nullptr,
                 uint32_t InputId = 0);

/// Empty when the traced outcome \p T reproduces the untraced \p U (same
/// Summary core, and for serial explorations the same copy-on-write
/// resume/root split); otherwise what differs.
std::string compareTraced(const Config &C, const Outcome &U,
                          const Outcome &T);

/// Folds \p S into \p Acc: the Summary core via mergeCore, plus the perf
/// counters (sums; peaks as maxima).
void mergeSummary(sim::Explorer::Summary &Acc, const sim::Explorer::Summary &S);

/// check::runSweep's FNV-1a step: folds the 8 bytes of \p V into \p Fp.
void mixFingerprint(uint64_t &Fp, uint64_t V);

/// Folds one sweep scenario into \p Fp exactly as check::runSweep does.
void foldSweepFingerprint(uint64_t &Fp, check::Lib L, unsigned Index,
                          const sim::Explorer::Summary &Sum);

/// Path-equivalence self test; returns the number of failures.
int selfTest();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
