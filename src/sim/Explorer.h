//===-- sim/Explorer.h - Stateless model-checking driver --------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model checker: a stateless (replay-based) explorer of the decision
/// tree formed by every nondeterministic choice of an execution — scheduler
/// picks, load read-from choices, and CAS alternatives. In exhaustive mode
/// it performs a depth-first enumeration of all decision sequences (up to
/// an execution cap); in random mode it samples seeded random decision
/// sequences. This is the framework's replacement for the paper's deductive
/// proofs: a property checked over *all* executions of a bounded workload.
///
/// The exploration stack is layered:
///  - DecisionTree (DecisionTree.h): the pure DFS frontier — trace
///    bookkeeping, backtracking, subtree splitting. No I/O; unit-testable.
///  - Explorer (this file): one search worker — binds a DecisionTree (or a
///    random sampler) to the ChoiceSource interface the Machine/Scheduler
///    consume, and accumulates the Summary (counters, per-tag choice
///    statistics, throughput, first-violation trace).
///  - Workload / explore / replay (Workload.h): a bounded program as a
///    first-class value, the serial driver, and deterministic single-trace
///    replay for counterexample reproduction.
///  - ParallelExplorer (ParallelExplorer.h): N workers over a shared queue
///    of unexplored subtree prefixes; its Summary's deterministic core is
///    bit-identical to the serial explorer's regardless of worker count.
///
/// Usage (manual driving; prefer explore()/Workload for the common case):
/// \code
///   Explorer Ex(Opts);
///   while (Ex.beginExecution()) {
///     rmc::Machine M(Ex);
///     Scheduler S(M, Ex);
///     ... allocate, create monitors, start threads ...
///     auto R = S.run(Ex.options().MaxStepsPerExec);
///     Ex.recordCheck(/*Ok=*/...);   // optional: per-execution property
///     Ex.endExecution(R);
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_EXPLORER_H
#define COMPASS_SIM_EXPLORER_H

#include "sim/DecisionTree.h"
#include "sim/Reduction.h"
#include "sim/Scheduler.h"
#include "support/Choice.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace compass::sim {

/// Which state-space reduction the explorer applies (DESIGN.md Sections 8
/// and 12).
enum class ReductionMode {
  None,     ///< Plain exhaustive DFS (the oracle; fingerprint-stable).
  SourceSet ///< Source-set DPOR over sched choices: sleep sets with the
            ///< watermark-refined wake relation, restricted re-runs of
            ///< sleeping reads/updates, and skipping of covered sched
            ///< alternatives without an execution (sim/Reduction.h).
};

/// How the exploration engine re-establishes state between executions
/// (DESIGN.md Section 11). Functionally invisible: summaries, fingerprints
/// and violation traces are bit-identical across paths.
enum class EnginePath {
  Auto,      ///< Copy-on-write prefix resumption when the workload allows.
  RootReplay ///< Always re-execute from the root (the classic engine; the
             ///< A/B reference for the copy-on-write path).
};

/// Canonical spelling of a ReductionMode ("none" | "source");
/// one vocabulary across the CLI, checkpoints, telemetry, and benchmarks.
const char *reductionModeName(ReductionMode M);
/// Inverse of reductionModeName; false on an unknown spelling.
bool parseReductionMode(const std::string &S, ReductionMode &Out);

/// Canonical spelling of an EnginePath ("auto" | "root").
const char *enginePathName(EnginePath P);
/// Inverse of enginePathName; false on an unknown spelling.
bool parseEnginePath(const std::string &S, EnginePath &Out);

/// Explores the decision tree of a bounded concurrent program.
class Explorer : public ChoiceSource {
public:
  enum class Mode {
    Exhaustive, ///< DFS over all decision sequences.
    Random      ///< Seeded random sampling.
  };

  struct Options {
    Mode ExploreMode = Mode::Exhaustive;
    uint64_t MaxExecutions = 2'000'000; ///< Cap for exhaustive mode.
    uint64_t RandomRuns = 1000;         ///< Runs in random mode.
    uint64_t Seed = 1;                  ///< Random-mode seed.
    uint64_t MaxStepsPerExec = 100'000; ///< Scheduler step budget.
    unsigned PreemptionBound = ~0u;     ///< Scheduler preemption budget.
    unsigned Workers = 1;      ///< Worker threads; >1 selects the parallel
                               ///< explorer in explore(Workload).
    bool StopOnViolation = false; ///< Stop at the first failed check. Note:
                                  ///< truncates the run, so counters are no
                                  ///< longer worker-count independent.
    double ProgressIntervalSec = 0; ///< >0: periodic stderr progress lines.
    /// State-space reduction. Only effective in exhaustive mode; replay
    /// and random sampling always run unreduced. Keep None when an
    /// execution-count baseline (e.g. a pinned fingerprint comparison
    /// against unreduced exploration) is required.
    ReductionMode Reduction = ReductionMode::None;
    /// Execution engine path; see EnginePath. RootReplay is the A/B
    /// reference used by tests to pin down that copy-on-write resumption
    /// is observationally identical.
    EnginePath Engine = EnginePath::Auto;
  };

  /// Per-tag statistics over the choice points of all explored executions.
  /// Every choose() call (including replays of backtracked prefixes) is
  /// counted, so totals are a worker-count-independent measure of search
  /// effort per decision kind.
  struct TagStat {
    uint64_t Choices = 0; ///< choose() calls carrying this tag.
    uint64_t AltSum = 0;  ///< Sum of arities over those calls.
    unsigned MaxArity = 0;

    double avgArity() const {
      return Choices ? static_cast<double>(AltSum) / Choices : 0.0;
    }
  };

  struct Summary {
    // -- Deterministic core -------------------------------------------
    // Identical for serial and parallel exploration of the same workload
    // (any worker count), provided the run was not truncated by
    // StopOnViolation. Compared by coreEquals().
    uint64_t Executions = 0; ///< Total runs performed.
    uint64_t Completed = 0;  ///< Runs where all threads finished.
    uint64_t Deadlocks = 0;
    uint64_t Races = 0;
    uint64_t Diverged = 0;   ///< Runs cut off by the step budget.
    uint64_t Pruned = 0;     ///< Stutter iterations cut by Env::prune.
    uint64_t SleepPruned = 0; ///< Executions cut by the source-set
                              ///< reduction at an asleep pick.
    uint64_t RfPruned = 0;    ///< Executions cut because a restricted
                              ///< re-run's reads-from set was empty
                              ///< (source-set mode only).
    uint64_t SourcePruned = 0; ///< Sched alternatives the source-set
                               ///< reduction prunes, skipped without an
                               ///< execution: those before a fresh node's
                               ///< first live alternative, and covered
                               ///< siblings at advance time (source-set
                               ///< mode only).
    uint64_t CacheHits = 0;  ///< Always 0: nothing increments it since the
                             ///< reads-from duplicate cache was removed.
                             ///< Kept so fingerprints, checkpoint formats
                             ///< and JSON keys stay unchanged.
    uint64_t Violations = 0; ///< Executions whose check failed.
    bool Exhausted = false;  ///< Whole tree covered (exhaustive mode).
    uint64_t MaxDepth = 0;   ///< Deepest decision sequence seen.
    bool HasViolation = false;
    /// Decision trace of the lexicographically least violating execution —
    /// which is exactly the first one serial DFS encounters. Feed its
    /// decisions() to replay() to reproduce the failure.
    std::vector<DecisionTree::Decision> FirstViolation;
    /// Per-tag choice-point statistics, keyed by the Tag of choose().
    std::map<std::string, TagStat> Tags;

    // -- Observability (timing-dependent; excluded from coreEquals) ----
    struct Perf {
      double WallSeconds = 0;
      double ExecsPerSec = 0;
      uint64_t PeakFrontier = 0; ///< Largest DFS frontier seen (per worker).
      uint64_t PeakQueue = 0;    ///< Largest shared work queue (parallel).
      uint64_t Donations = 0;    ///< Prefixes donated between workers.
      unsigned Workers = 1;
      // Copy-on-write engine effectiveness (sim/Engine.h). StepsLogical
      // counts every scheduler step of every execution (what root replay
      // would run); StepsExecuted counts the steps actually performed —
      // the gap is the work the snapshot/fast-forward path avoided.
      uint64_t StepsExecuted = 0;
      uint64_t StepsLogical = 0;
      uint64_t CowResumes = 0; ///< Executions resumed from a snapshot.
      uint64_t RootRuns = 0;   ///< Executions run from the root.
    } Perf;

    /// The first violation's decisions as plain indices (replay() input).
    std::vector<unsigned> firstViolationDecisions() const;

    /// True iff the deterministic cores match (all counters, Exhausted,
    /// MaxDepth, tag stats, and the first-violation trace).
    bool coreEquals(const Summary &O) const;

    /// Folds \p O's deterministic core into this one (used by the parallel
    /// explorer to aggregate per-worker summaries).
    void mergeCore(const Summary &O);

    std::string str() const;

    /// Machine-readable dump (single JSON object) of the full summary;
    /// consumed by bench/bench_simulator and bench_verification_summary.
    std::string json() const;
  };

  explicit Explorer(Options O);
  Explorer();

  /// Constructs a worker explorer that enumerates exactly the subtree below
  /// \p Seed (see DecisionTree splitting). Used by ParallelExplorer.
  Explorer(Options O, DecisionTree::Prefix Seed);

  /// Prepares the next execution; false when exploration is finished.
  bool beginExecution();

  /// True while beginExecution() would succeed (frontier nonempty and the
  /// local budget not exhausted). Lets the parallel explorer consult the
  /// global execution budget before committing to an execution.
  bool hasWork() const;

  /// Records the outcome of the current execution's property check. Call
  /// between the scheduler run and endExecution(); without a call the
  /// execution counts as passing.
  void recordCheck(bool Ok);

  /// Reports the result of the current execution and backtracks.
  void endExecution(Scheduler::RunResult R);

  unsigned choose(unsigned Count, const char *Tag) override;

  /// Source-set restricted choice: enumerates [0, Limit) but records the
  /// decision at the full unrestricted arity \p Count, keeping the trace
  /// replay-compatible with a reduction-free re-run (sim::replay, the
  /// conformance diagnosis pipeline, corpus traces).
  unsigned chooseLimited(unsigned Count, unsigned Limit,
                         const char *Tag) override;

  size_t decisionPosition() const override;

  const Options &options() const { return Opts; }
  /// The summary so far. Timing and per-tag statistics are folded in by
  /// this call, not after every execution.
  const Summary &summary();

  // -- Copy-on-write engine hooks (sim/Engine.h) -----------------------

  /// Called from choose() right before a *fresh* multi-alternative decision
  /// is appended to the tree (exhaustive mode, not replaying). NodeIndex is
  /// the decision's index on the path; the engine snapshots machine /
  /// scheduler / reduction state so sibling alternatives of this node can
  /// resume here instead of replaying from the root.
  using SnapshotHook = std::function<void(size_t NodeIndex, const char *Tag)>;
  void setSnapshotHook(SnapshotHook H) { SnapHook = std::move(H); }

  /// Jumps the decision-tree replay cursor to \p Pos for an execution
  /// resumed from a snapshot (the skipped decisions were validated when
  /// the snapshot's execution recorded them). The skipped decisions still
  /// count in the per-tag statistics, which sum each finished execution's
  /// whole path.
  void resumeReplayAt(size_t Pos);

  /// The decision sequence of the current (or last) execution; useful for
  /// reporting reproducible counterexamples. Recorded in both exhaustive
  /// and random modes.
  std::vector<unsigned> currentDecisions() const;

  /// The current decision sequence with tags and arities.
  const std::vector<DecisionTree::Decision> &currentTrace() const;

  /// Pretty-prints the current decision sequence, one line per decision:
  /// `#3 sched (4 alts) -> 2`.
  std::string formatTrace() const { return formatTrace(currentTrace()); }

  /// Pretty-prints \p Trace (e.g. a Summary's FirstViolation).
  static std::string formatTrace(const std::vector<DecisionTree::Decision> &Trace);

  // -- Work sharing (ParallelExplorer) --------------------------------

  /// True if split() would donate at least one subtree. Only meaningful
  /// between executions in exhaustive mode.
  bool splittable() const;

  /// Donates up to \p MaxDonations unexplored subtree prefixes from the
  /// shallowest open choice point; see DecisionTree::split(). When the
  /// source-set reduction is active, each donated prefix is annotated with
  /// the donor's sleep state so the recipient can cross-check its own.
  std::vector<DecisionTree::Prefix> split(size_t MaxDonations);

  // -- Checkpointing (sim/Checkpoint.h) -------------------------------

  /// Hands the *entire* unexplored remainder of this explorer's subtree
  /// back as pinned prefixes (DecisionTree::frontierPrefixes, sleep-
  /// annotated like split()'s donations) and marks the explorer finished:
  /// hasWork() turns false and the summary's Exhausted bit is set, because
  /// the executed share is complete — the donated remainder carries its
  /// own exhaustion bit once explored. Exploring the returned prefixes
  /// (in any partition, at any worker count) and merging the cores into
  /// this explorer's summary core reproduces the bit-identical summary of
  /// an uninterrupted run. Must be called between executions; exhaustive
  /// mode only.
  std::vector<DecisionTree::Prefix> drainFrontier();

  /// Untried alternatives hanging off the current path (the live DFS
  /// frontier size; exhaustive mode).
  uint64_t frontierSize() const { return Tree.frontierSize(); }

  /// Depth of the current decision path.
  uint64_t currentDepth() const { return Tree.depth(); }

  /// The source-set reduction driving this explorer, or nullptr when
  /// reduction is off. Hand it to Scheduler::setReduction().
  Reduction *reduction() { return Red ? &*Red : nullptr; }

private:
  Options Opts;
  Summary Sum;
  DecisionTree Tree;
  /// Present exactly in exhaustive source-set mode.
  std::optional<Reduction> Red;
  /// Whether alternative \p Alt of the decision at \p Pos is skippable
  /// without running it. Used by endExecution's advance loop and by
  /// split()/drainFrontier() donation filtering — both must agree with the
  /// serial skip decision for cross-worker fingerprint parity.
  bool skippableAt(size_t Pos, unsigned Alt) const;
  /// Removes skip-marked prefixes from a donation batch, counting them into
  /// this (the donor's) summary — a recipient would otherwise burn an
  /// execution on a subtree serial exploration skips without one. KeepLast
  /// protects the pinned current-path prefix of drainFrontier(), which was
  /// already vetted by the advance loop.
  void dropSkippedDonations(std::vector<DecisionTree::Prefix> &Out,
                            bool KeepLast);
  /// Skippable masks per tree-node position, recorded at choose() time
  /// (source-set mode). Entries for positions skipped by a copy-on-write
  /// resume persist from the execution that recorded them; replayed
  /// positions are overwritten with identically recomputed masks (they are
  /// pure functions of the decision prefix).
  std::vector<uint64_t> SkipMasks;
  /// Random-mode decision log (the DFS tree is unused in random mode, but
  /// failures must still be replayable — see currentDecisions()).
  std::vector<DecisionTree::Decision> RandTrace;
  bool InExecution = false;
  bool HasWork = true;
  Rng Rand;
  /// Per-tag stats of finished executions, keyed by pointer identity of
  /// the static tag string (folded into Summary.Tags by name on finalize).
  /// Linear scan: there are only a handful of distinct tags ("sched",
  /// "load", "cas", ...).
  std::vector<std::pair<const char *, TagStat>> TagStats;
  /// Exhaustive mode counts choices per path, not per choose() call: each
  /// finished execution adds the per-tag totals of its whole path (every
  /// decision on it was chosen, replayed or skipped by a copy-on-write
  /// resume). PathStats (index-aligned with TagStats) holds the totals of
  /// the current path, PathNodes each path decision's tag index and arity;
  /// both change only where the path does, so a resume costs nothing.
  struct PathNode {
    uint32_t Tag;
    unsigned Count;
  };
  std::vector<TagStat> PathStats;
  std::vector<PathNode> PathNodes;
  SnapshotHook SnapHook;
  std::chrono::steady_clock::time_point Start;
  std::chrono::steady_clock::time_point LastProgress;

  size_t tagIndex(const char *Tag);
  void pushPathStat(const char *Tag, unsigned Count);
  /// Drops PathNodes entries past the path after advance().
  void trimPathStats();
  void finalizePerf(std::chrono::steady_clock::time_point Now);
};

/// Convenience driver: runs \p Setup then the scheduler for every explored
/// execution, invoking \p Check afterwards. \p Setup receives the fresh
/// machine and scheduler and must allocate state and start threads;
/// \p Check receives them after the run together with the run result and
/// may return void (informational) or bool (false = property violation,
/// counted in Summary::Violations with the trace captured).
///
/// This template remains strictly serial; parallel exploration needs a
/// Workload with a per-worker body factory (see Workload.h and
/// ParallelExplorer.h).
template <typename SetupT, typename CheckT>
Explorer::Summary explore(Explorer::Options Opts, SetupT Setup,
                          CheckT Check) {
  Explorer Ex(Opts);
  // One machine/scheduler pair serves every execution: reset() rewinds
  // their logical state while retaining heap storage, so steady-state
  // replays allocate nothing (the arena pattern; see rmc::Machine::reset).
  rmc::Machine M(Ex);
  Scheduler S(M, Ex);
  S.setPreemptionBound(Opts.PreemptionBound);
  S.setReduction(Ex.reduction());
  while (Ex.beginExecution()) {
    M.reset();
    S.reset();
    Setup(M, S);
    Scheduler::RunResult R = S.run(Opts.MaxStepsPerExec);
    if constexpr (std::is_same_v<decltype(Check(M, S, R)), bool>) {
      bool Ok = Check(M, S, R);
      Ex.recordCheck(Ok);
      Ex.endExecution(R);
      if (!Ok && Opts.StopOnViolation)
        break;
    } else {
      Check(M, S, R);
      Ex.endExecution(R);
    }
  }
  return Ex.summary();
}

} // namespace compass::sim

#endif // COMPASS_SIM_EXPLORER_H
