//===-- check/Conformance.h - Sweep + mutation-test drivers -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two top-level conformance campaigns (DESIGN.md §7), shared by the
/// compass_check CLI, tests/ConformanceTest.cpp, and bench_conformance:
///
///  * runSweep — explore N generated scenarios per library against the
///    *pristine* implementations; every execution's event graph must be
///    explained by the reference model. The report's deterministic
///    fingerprint is worker-count independent (StopOnViolation stays off),
///    which tests/ParallelTest.cpp checks across 1/2/4 workers.
///
///  * runMutationTests — for each seeded Mutation, hunt generated
///    scenarios until one kills the mutant (exploration finds a violating
///    execution), then shrink the counterexample. A surviving mutant
///    means the oracle has a blind spot, and fails the campaign.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_CONFORMANCE_H
#define COMPASS_CHECK_CONFORMANCE_H

#include "check/ScenarioGen.h"
#include "check/Shrinker.h"

namespace compass::check {

//===----------------------------------------------------------------------===//
// Pristine-library sweep
//===----------------------------------------------------------------------===//

struct SweepOptions {
  uint64_t Seed = 1;
  unsigned ScenariosPerLib = 50;
  unsigned Workers = 1;
  uint64_t MaxExecutionsPerScenario = 200000;
  std::vector<Lib> Libs; ///< Empty = all libraries.
  GenOptions Gen;
  /// State-space reduction used per scenario (None = unreduced baseline;
  /// changes the fingerprint, since exhausted scenarios then fold
  /// different execution counts). Source sets are the default: the
  /// strongest reduction with identical verdicts (DESIGN.md §12).
  sim::ReductionMode Reduction = sim::ReductionMode::SourceSet;
  /// Execution engine path per scenario. Functionally invisible (summaries
  /// are bit-identical across paths), but recorded in checkpoints so a
  /// resume cannot silently flip the engine under a comparison run.
  sim::EnginePath Engine = sim::EnginePath::Auto;
};

/// Deterministic per-library aggregate (sum of Summary cores).
struct LibSweepStats {
  Lib L = Lib::MsQueue;
  unsigned Scenarios = 0;
  uint64_t Executions = 0;
  uint64_t Completed = 0;
  uint64_t Races = 0;
  uint64_t Deadlocks = 0;
  uint64_t Violations = 0;
  uint64_t SleepPruned = 0; ///< Branches cut by the source-set reduction.
  uint64_t RfPruned = 0;    ///< Restricted re-runs with no fresh reads-from
                            ///< options (source-set mode).
  uint64_t SourcePruned = 0; ///< Covered sched siblings skipped without an
                             ///< execution (source-set mode).
  uint64_t CacheHits = 0; ///< Always 0 (see sim::Explorer::Summary).
  uint64_t MaxDepth = 0; ///< Max over the library's scenarios.
  uint64_t LinAborts = 0; ///< Executions whose witness search hit budget.
  unsigned Truncated = 0; ///< Scenarios whose tree hit the execution cap.
  unsigned FirstBadScenario = ~0u; ///< Generator index; ~0u when clean.
  std::string FirstBad; ///< Scenario + verdict of the first violation.
};

/// The three-valued outcome of a sweep; Clean means every execution of
/// every scenario was checked.
enum class SweepVerdict { Violations, Clean, Unverified };
/// "violations", "clean" or "unverified".
const char *sweepVerdictName(SweepVerdict V);

struct SweepReport {
  uint64_t Seed = 0;
  unsigned Workers = 1;
  std::vector<LibSweepStats> PerLib;

  /// Sum of the per-library counter \p F.
  template <typename T> uint64_t total(T LibSweepStats::*F) const {
    uint64_t N = 0;
    for (const LibSweepStats &St : PerLib)
      N += St.*F;
    return N;
  }
  uint64_t totalViolations() const {
    return total(&LibSweepStats::Violations) + total(&LibSweepStats::Races) +
           total(&LibSweepStats::Deadlocks);
  }
  uint64_t totalExecutions() const { return total(&LibSweepStats::Executions); }
  uint64_t totalTruncated() const { return total(&LibSweepStats::Truncated); }
  uint64_t totalLinAborts() const { return total(&LibSweepStats::LinAborts); }
  bool clean() const { return totalViolations() == 0; }

  /// Unverified when clean() but totalTruncated() trees hit the execution
  /// cap or totalLinAborts() executions were passed unchecked.
  SweepVerdict verdict() const;

  /// FNV-1a folded per scenario during the sweep: every scenario mixes in
  /// its library, index, and exhaustion flag; scenarios whose decision
  /// tree was *exhausted* additionally mix their full Summary core
  /// (executions, completed, races, deadlocks, violations, max depth). A
  /// truncated tree's DFS subset depends on the worker count, so its
  /// counters are deliberately left out. Equal across worker counts for a
  /// fixed seed, provided the budget is not within the parallel explorer's
  /// overshoot margin of a tree's exact size.
  uint64_t fingerprint() const { return Fp; }
  uint64_t Fp = 1469598103934665603ull; ///< Written by runSweep.

  std::string str() const;  ///< Human-readable table.
  std::string json() const; ///< Single JSON object.
};

SweepReport runSweep(const SweepOptions &O);

//===----------------------------------------------------------------------===//
// Mutation testing
//===----------------------------------------------------------------------===//

struct MutationOptions {
  uint64_t Seed = 1;
  unsigned MaxScenarios = 200; ///< Hunt budget per mutant.
  uint64_t MaxExecutionsPerScenario = 100000;
  bool Shrink = true;
  ShrinkOptions Shr;
  std::vector<Mutation> Muts; ///< Empty = all mutations (excluding None).
  /// State-space reduction used while hunting (replay/shrink verification
  /// of the final counterexample always runs unreduced).
  sim::ReductionMode Reduction = sim::ReductionMode::SourceSet;
};

struct MutantReport {
  Mutation Mut = Mutation::None;
  bool Killed = false;
  unsigned ScenariosTried = 0;
  Scenario Killer; ///< First failing scenario (pre-shrink).
  std::vector<unsigned> KillerDecisions;
  ShrinkResult Shrunk; ///< Valid when Killed and shrinking was on.
  std::string Rule;    ///< Verdict rule of the final failing replay.

  std::string str() const;
};

/// Hunts one mutant; see file comment.
MutantReport huntMutant(Mutation Mut, const MutationOptions &O);

/// Runs every requested mutation; order follows MutationOptions::Muts.
std::vector<MutantReport> runMutationTests(const MutationOptions &O);

/// A corpus entry (scenario + decisions + provenance note) for a killed
/// mutant's shrunk counterexample, ready for tests/corpus/.
CorpusEntry corpusEntryFor(const MutantReport &R);

} // namespace compass::check

#endif // COMPASS_CHECK_CONFORMANCE_H
