//===-- sim/Engine.h - Copy-on-write execution engine -----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine behind every exploration worker (exploreResumable,
/// sim/ParallelExplorer.h): it owns the per-execution state-reset protocol
/// between an Explorer and a Machine/Scheduler pair (DESIGN.md Section 11).
///
/// Classic stateless model checking re-executes every explored execution
/// from the root, so an execution at depth d costs O(d) machine operations
/// even when it shares a d-1 prefix with its predecessor. This engine
/// instead snapshots the simulation at every fresh multi-alternative
/// decision node (a Machine::Snap of thread views + an O(1) memory epoch, a
/// Scheduler::Boundary, the reduction's sleep state, and the body's
/// client-state slot) and keeps the snapshots on a stack mirroring the DFS
/// path. When the explorer backtracks to a node, the engine rewinds: memory
/// is trimmed to the node's epoch via the undo logs, views are restored
/// from the snapshot, and — since C++20 coroutine frames cannot be copied —
/// the client coroutines are *fast-forwarded*: re-created by Setup and
/// resumed through the journaled step sequence with every machine operation
/// elided (awaiters return journaled values). Only the divergent suffix
/// executes machine operations for real.
///
/// The engine is observationally identical to root replay: summaries,
/// per-tag statistics, sweep fingerprints and first-violation traces are
/// bit-identical (tests pin this via Options::Engine = RootReplay A/B
/// runs). Any stack/trace mismatch falls back to a root execution, so the
/// copy-on-write path is a pure optimization, never a correctness
/// dependency.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_ENGINE_H
#define COMPASS_SIM_ENGINE_H

#include "sim/Explorer.h"
#include "sim/Workload.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace compass::sim {

/// Drives executions of one explorer subtree over a Machine/Scheduler
/// pair; see file comment. The caller (the worker loop in
/// ParallelExplorer.cpp) owns the begin/record/end explorer protocol and
/// calls runOne() once per execution, between Ex.beginExecution() and
/// Ex.recordCheck(R.CheckOk) / Ex.endExecution(R.Run).
class Engine {
public:
  struct ExecResult {
    Scheduler::RunResult Run = Scheduler::RunResult::Done;
    bool CheckOk = true;
  };

  /// Binds the engine to one explorer/machine/scheduler/body quadruple.
  /// Installs the explorer's snapshot hook; uninstalls it on destruction.
  /// The referenced objects must outlive the engine.
  Engine(Explorer &Ex, rmc::Machine &M, Scheduler &S, Workload::Body &Body);
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Runs one execution (the caller's beginExecution() must have returned
  /// true): resumes from the deepest matching snapshot when possible,
  /// otherwise executes from the root.
  ExecResult runOne();

  /// Whether the copy-on-write path is in use (workload eligible, engine
  /// path not forced to RootReplay, tracing off).
  bool cowActive() const { return CowEligible; }

  /// Executions resumed from a snapshot vs. executed from the root, for
  /// diagnostics and the interpreter microbenchmark.
  uint64_t cowResumes() const { return Resumes; }
  uint64_t rootRuns() const { return Roots; }

  /// Scheduler steps actually executed vs. the logical total a root-replay
  /// engine would have run (see Explorer::Summary::Perf).
  uint64_t stepsExecuted() const { return StepsExecuted; }
  uint64_t stepsLogical() const { return StepsLogical; }

private:
  /// One snapshot on the DFS-path stack: everything needed to resume the
  /// simulation right before the decision at NodeIndex. Slots are pooled
  /// in a watermarked vector so steady-state exploration reuses their
  /// heap storage (views, journals, client state) instead of reallocating.
  struct SnapSlot {
    size_t NodeIndex = 0;
    rmc::Machine::Snap MSnap;
    Scheduler::Boundary SBound;
    Reduction::Boundary RBound;
    std::shared_ptr<void> Client; ///< Body.CowSave state (e.g. monitor).
  };

  void onSnapshot(size_t NodeIndex, const char *Tag);
  void resumeFrom(const SnapSlot &Slot);
  void rootSetup();

  Explorer &Ex;
  rmc::Machine &M;
  Scheduler &S;
  Workload::Body &Body;
  Reduction *Red = nullptr;
  uint64_t MaxSteps = 0;
  bool CowEligible = false;

  std::vector<SnapSlot> Slots; ///< [0, Depth) live; rest retained storage.
  size_t Depth = 0;

  uint64_t Resumes = 0;
  uint64_t Roots = 0;
  uint64_t StepsExecuted = 0;
  uint64_t StepsLogical = 0;
};

} // namespace compass::sim

#endif // COMPASS_SIM_ENGINE_H
