//===-- sim/Reduction.h - Source-set POR ------------------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-set partial-order reduction over the scheduler's thread-choice
/// points, specialized to the view-based RMC machine (DESIGN.md Sections 8
/// and 12).
///
/// The skeleton is sleep sets [Godefroid]: after the explorer finishes the
/// branch that schedules thread t at a choice point, the sibling branches
/// need not re-explore interleavings that merely *delay* t past steps
/// independent of t's pending operation — swapping adjacent independent
/// steps yields the identical machine state. When the DFS takes alternative
/// `Pick` at a `sched` choice point, every alternative j < Pick (already
/// fully explored in sibling branches, in DFS order) is put to *sleep*. A
/// sleeping move wakes as soon as any executed step is dependent on it; if
/// the scheduler is about to run a move that is still asleep, the branch
/// is pruned.
///
/// Source sets upgrade that skeleton three ways.
/// (1) A refined wake relation (rmc::sourceKeepsAsleep): same-location
/// atomic non-SC read/write pairs keep each other asleep, because the
/// commutation is exact for reads-from choices below the sleeping move's
/// history watermark (SleepMove::Ver, stamped at sleep-insert time).
/// (2) A sleeping read/update that *is* eventually scheduled while new
/// messages exist past its watermark executes with a reads-from floor
/// installed on the machine — it enumerates only the genuinely new
/// reads-from options; the stale ones commute back to the explored sibling
/// (Scheduler reports an execution whose restricted option set came up
/// empty as RunResult::RfPruned). (3) Every sched point computes its per-
/// alternative verdicts *before* the pick; the explorer takes the
/// Prune-marked ones (takePruneMask) so it creates
/// a fresh node at its first live alternative and discards fully-covered
/// sibling subtrees at advance time, without burning an execution on
/// either (Summary::SourcePruned).
///
/// Only `sched`-tagged decisions participate; read-from and CAS-outcome
/// choice points are never pruned by this layer. All state is
/// recomputed online from the decision path on every execution (it is a
/// pure function of the path), so replayed prefixes — including seeded
/// prefixes adopted from another worker — deterministically reconstruct
/// the donor's state; donated prefixes carry a snapshot
/// (DecisionTree::Prefix::Sleep) that the recipient validates against its
/// recomputation.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_REDUCTION_H
#define COMPASS_SIM_REDUCTION_H

#include "rmc/Footprint.h"
#include "sim/DecisionTree.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace compass::sim {

/// Online source-set state for one explorer (one worker); see
/// file comment. All containers are watermarked/recycled so steady-state
/// executions do not allocate.
class Reduction {
public:
  /// What the scheduler must do with the move it just picked.
  enum class Verdict : uint8_t {
    Run,       ///< Not asleep: execute normally.
    Prune,     ///< Asleep, fully covered: abandon the execution.
    Restricted ///< Asleep with fresh messages past the watermark: execute
               ///< with the reads-from floor restrictLoc()/restrictVer().
  };

  /// Clears the per-execution state; call before each execution.
  void beginExecution();

  /// First half of the hook for a real `sched` choice (arity > 1, not
  /// preemption-forced), called *before* the pick: records the choice
  /// point and its per-alternative verdicts against the entry sleep set,
  /// and holds the Prune-marked alternatives for takePruneMask().
  ///
  /// \p Enabled are the schedulable threads, \p Fps their pending-operation
  /// footprints, \p HistLens the current history length of each pending
  /// footprint's location (parallel arrays).
  void onSchedPoint(const std::vector<unsigned> &Enabled,
                    const std::vector<rmc::Footprint> &Fps,
                    const std::vector<uint32_t> &HistLens);

  /// The Prune-marked alternatives of the sched point onSchedPoint() just
  /// recorded (bit k: alternative k, first 64 only), for the explorer's
  /// choice at that point; clears them, so every other choice reads 0.
  uint64_t takePruneMask() { return std::exchange(PruneMask, 0); }

  /// Second half: commits the alternative \p Pick chosen at the point just
  /// recorded by onSchedPoint(). Puts alternatives j < Pick to sleep
  /// (with their history watermarks), validates against the
  /// donated seed snapshot when this is the seeded ordinal, and returns the
  /// verdict for the picked move.
  Verdict commitPick(unsigned Pick);

  /// Hook for a forced or singleton schedule (no tree decision recorded):
  /// verdict only — never adds sleeps, because no sibling branch exists at
  /// such a point. \p HistLen is the current history length of the picked
  /// thread's pending location.
  Verdict onSchedule(unsigned Tid, uint32_t HistLen);

  /// Valid right after a Restricted verdict: the reads-from floor the
  /// scheduler must install on the machine for the restricted step.
  rmc::Loc restrictLoc() const { return RestrictL; }
  uint32_t restrictVer() const { return RestrictVer; }

  /// Hook after a machine step by \p Tid with executed footprint \p F:
  /// wakes every sleeping move rmc::sourceKeepsAsleep cannot keep asleep
  /// (the stepping thread's own entry is always dropped — consecutive steps
  /// of one thread never commute).
  void onStepExecuted(unsigned Tid, const rmc::Footprint &F);

  /// Installs the donor's sleep snapshot for a seeded (donated) prefix:
  /// when the recomputed state reaches sched ordinal \p Ordinal, it is
  /// compared against \p Sleep; divergence is fatal (it would mean reduced
  /// exploration depends on the work distribution).
  void setSeed(std::vector<SleepMove> Sleep, size_t Ordinal);

  /// Annotates a donated prefix with the sleep state in force after its
  /// final decision. Only prefixes ending in a `sched` decision are
  /// annotated (P.HasSleep is cleared otherwise); recipients of
  /// unannotated prefixes still recompute the correct state, they just
  /// skip the cross-worker validation.
  void annotate(DecisionTree::Prefix &P) const;

  /// The current sleep set (sorted by Tid); exposed for tests.
  const std::vector<SleepMove> &current() const { return Cur; }

  //===--------------------------------------------------------------------===//
  // Copy-on-write boundaries. The scheduler calls saveBoundary() at the
  // top of every recorded step; the engine copies the saved state into its
  // snapshot and hands it back through restore() when rewinding. Only Cur
  // and the point count need capturing: Points entries are written once at
  // their sched choice and never mutated afterwards, so a rewind that
  // re-runs the divergent step recycles the next Points slot naturally.
  //===--------------------------------------------------------------------===//

  /// Sleep-set state at a step boundary (storage recycled across saves).
  struct Boundary {
    std::vector<SleepMove> Cur;
    size_t NumPoints = 0;
  };

  /// Records the current state into the loop-top scratch (capacity-reusing
  /// assignment; allocation-free at steady state).
  void saveBoundary() {
    LoopTop.Cur = Cur;
    LoopTop.NumPoints = NumPoints;
  }

  const Boundary &boundary() const { return LoopTop; }

  /// Rewinds to \p B (capacity-reusing assignment).
  void restore(const Boundary &B) {
    Cur = B.Cur;
    NumPoints = B.NumPoints;
  }

private:
  const SleepMove *findAsleep(unsigned Tid) const;
  /// The verdict for scheduling the move of sleeping entry \p E while its
  /// location's history is \p HistLen long; Run when E is null. Pure — the
  /// caller publishes the restriction fields for the picked move only.
  Verdict verdictFor(const SleepMove *E, uint32_t HistLen) const;
  static void insertMove(std::vector<SleepMove> &S, unsigned Tid,
                         const rmc::Footprint &Fp, uint32_t Ver);

  /// Snapshot of one sched choice point of the current execution, kept so
  /// split() can annotate donated prefixes ending at any such point.
  struct SchedPoint {
    std::vector<SleepMove> Entry;   ///< Sleep set before this point's adds.
    std::vector<SleepMove> Alts;    ///< Enabled moves, in choice order.
    std::vector<Verdict> Verdicts;  ///< Per alternative.
  };

  std::vector<SleepMove> Cur;     ///< Current sleep set, sorted by Tid.
  std::vector<SchedPoint> Points; ///< [0, NumPoints) valid this execution.
  size_t NumPoints = 0;
  uint64_t PruneMask = 0; ///< Held for takePruneMask().

  std::vector<SleepMove> Seed; ///< Donor snapshot (sorted by Tid).
  size_t SeedOrdinal = 0;
  bool HasSeed = false;

  rmc::Loc RestrictL = 0;    ///< Floor location of the last Restricted.
  uint32_t RestrictVer = 0;  ///< Floor watermark of the last Restricted.

  Boundary LoopTop; ///< saveBoundary() scratch (see the COW section).
};

} // namespace compass::sim

#endif // COMPASS_SIM_REDUCTION_H
