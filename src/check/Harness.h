//===-- check/Harness.h - Scenario -> Workload instrumentation --*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a Scenario into a sim::Workload the explorer can run: a uniform
/// Container-style adapter instantiates the scenario's library (pristine or
/// mutated), per-thread coroutines execute the op lists while recording the
/// observed results, and the workload's Check closure hands every completed
/// execution's event graph plus observations to the reference model
/// (check/RefModel.h), through a memo that checks each distinct input once
/// (VerdictMemo).
///
/// Observed-result encoding (Observed::Result):
///  * enq/push: the pushed value on success; 0 when an SPSC tryEnqueue
///    found the ring full; FailRaceVal when ElimStack rounds all failed;
///  * deq/pop/take/steal: the value, EmptyVal, or FailRaceVal (no event);
///  * exchange: the partner's value, or BottomVal on failure.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_HARNESS_H
#define COMPASS_CHECK_HARNESS_H

#include "check/Mutants.h"
#include "check/RefModel.h"
#include "check/Scenario.h"
#include "lib/ElimStack.h"
#include "lib/HwQueue.h"
#include "lib/MsQueue.h"
#include "lib/SpscRing.h"
#include "lib/TreiberStack.h"
#include "lib/TreiberStackEbr.h"
#include "lib/WsDeque.h"
#include "sim/Workload.h"

#include <array>
#include <atomic>
#include <memory>

namespace compass::check {

/// Instantiates and drives one scenario's library (pristine or mutated).
class ContainerAdapter {
public:
  ContainerAdapter(const Scenario &S, Mutation Mut, rmc::Machine &M,
                   spec::SpecMonitor &Mon);

  /// Executes one op, returning the observed result (see file comment).
  sim::Task<rmc::Value> apply(sim::Env &E, Op O);

  /// Runs the reference-model pipeline over \p Mon's recorded graph. For
  /// the elimination stack the checked graph is first *derived* from the
  /// base stack's and exchanger's events (spec/Composition.h).
  Verdict verdict(const spec::SpecMonitor &Mon,
                  const std::vector<std::vector<Observed>> &Results,
                  spec::LinearizeLimits Limits) const;

  /// Object id under which the library commits its events (for checks that
  /// want to interrogate the recorded graph directly, e.g. the HW-queue
  /// spec-strength separation test).
  unsigned objId() const { return Obj; }

private:
  Lib L;
  // Exactly one of these is set, per (L, Mut).
  std::unique_ptr<lib::SimQueue> Q;      ///< MsQueue/HwQueue or MutMsQueue.
  std::unique_ptr<lib::SimStack> Stk;    ///< TreiberStack or MutTreiberStack.
  std::unique_ptr<lib::ElimStack> Elim;
  std::unique_ptr<lib::Exchanger> Ex;
  std::unique_ptr<MutExchanger> MEx;
  std::unique_ptr<lib::SpscRing> Ring;
  std::unique_ptr<MutSpscRing> MRing;
  std::unique_ptr<lib::WsDeque> Deq;
  std::unique_ptr<MutWsDeque> MDeq;
  unsigned Obj = 0; ///< Object id under which events are committed.
};

/// A bounded, exact memo of reference-model verdicts. Compass specs are
/// predicates over the event graph alone (events, `so`, and `lhb` through
/// logical views), so executions that differ only in their interleaving or
/// physical views get the same verdict; the memo checks each distinct
/// (graph, observed results) input once. The key is
/// graph::EventGraph::appendKey followed by the per-thread results.
/// Direct-mapped: a key hashes to one of Slots slots and a miss overwrites
/// that slot. A hit compares the full key, so a hash collision costs a
/// re-check, never a wrong verdict. DESIGN.md §7 has the sizing
/// measurements.
class VerdictMemo {
public:
  static constexpr size_t Slots = 64;

  /// Keys (\p G, \p Results) and returns the stored verdict, or nullptr on
  /// a miss.
  const Verdict *lookup(const graph::EventGraph &G,
                        const std::vector<std::vector<Observed>> &Results);

  /// Stores \p V under the key of the last lookup(), which must have
  /// missed.
  void store(const Verdict &V);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Slot {
    std::vector<uint64_t> Key; ///< Empty while unused; real keys never are.
    Verdict V;
  };
  std::array<Slot, Slots> Table;
  std::vector<uint64_t> Key; ///< The last lookup's key (buffer reused).
  size_t KeySlot = 0;        ///< The last lookup's slot.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Per-body state shared between the workload closures and the caller;
/// lets the driver read the last execution's verdict after a replay.
struct RunState {
  Scenario S;
  Mutation Mut = Mutation::None;
  spec::LinearizeLimits Limits{200000};

  // Reset by Setup each execution:
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<ContainerAdapter> A;
  std::vector<std::vector<Observed>> Results;

  // Written by Check:
  Verdict LastVerdict;
  sim::Scheduler::RunResult LastRun = sim::Scheduler::RunResult::Done;
  uint64_t LinAborts = 0; ///< Accumulated linearization budget overruns.
  /// When set, budget overruns are also folded into this cross-worker
  /// counter (see makeWorkload).
  std::shared_ptr<std::atomic<uint64_t>> SharedLinAborts;

  /// Verdicts of completed executions. S, Mut and Limits are fixed for the
  /// body's lifetime, so they need no place in the key.
  VerdictMemo Memo;
};

/// Exploration options tuned for \p S (preemption bound from the scenario,
/// a per-scenario execution budget, StopOnViolation off so summaries stay
/// worker-count independent). Verification defaults to the source-set
/// reduction (DESIGN.md Sections 8 and 12); pass ReductionMode::None for
/// an unreduced baseline (e.g. when comparing against pinned fingerprints
/// of unreduced exploration).
sim::Explorer::Options
scenarioOptions(const Scenario &S, uint64_t MaxExecutions, unsigned Workers,
                sim::ReductionMode Red = sim::ReductionMode::SourceSet,
                sim::EnginePath Engine = sim::EnginePath::Auto);

/// A workload whose body is instantiated per worker (safe for parallel
/// exploration). Violations are executions whose reference-model verdict
/// fails, plus races/deadlocks/step-limit runs. When \p LinAborts is
/// non-null it accumulates, across all workers, the executions whose
/// linearization search hit its state budget (verdict unknown, treated as
/// pass).
sim::Workload makeWorkload(const Scenario &S, Mutation Mut,
                           sim::Explorer::Options Opts,
                           std::shared_ptr<std::atomic<uint64_t>> LinAborts =
                               nullptr);

/// A single-body workload that exposes its RunState, for replay +
/// diagnostics (the parallel-safe makeWorkload keeps its states private).
struct Instrumented {
  sim::Workload W;
  std::shared_ptr<RunState> State;
};
Instrumented makeInstrumented(const Scenario &S, Mutation Mut,
                              sim::Explorer::Options Opts);

/// Replays \p Decisions against an instrumented body and reports the
/// run result, the reference-model verdict, and the canonical executed
/// decision sequence (divergence-free replay input).
struct TraceDiagnosis {
  sim::ReplayResult RR;
  sim::Scheduler::RunResult Run = sim::Scheduler::RunResult::Done;
  Verdict V;
  std::vector<unsigned> Executed;

  /// True when the replayed execution violates the property.
  bool failing() const { return !RR.CheckOk; }
};
TraceDiagnosis diagnoseTrace(const Scenario &S, Mutation Mut,
                             sim::Explorer::Options Opts,
                             const std::vector<unsigned> &Decisions);

} // namespace compass::check

#endif // COMPASS_CHECK_HARNESS_H
