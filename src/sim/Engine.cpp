//===-- sim/Engine.cpp - Copy-on-write execution engine -------------------===//

#include "sim/Engine.h"

#include <cassert>
#include <cstring>

using namespace compass;
using namespace compass::sim;

Engine::Engine(Explorer &Ex, rmc::Machine &M, Scheduler &S,
               Workload::Body &Body)
    : Ex(Ex), M(M), S(S), Body(Body), Red(Ex.reduction()),
      MaxSteps(Ex.options().MaxStepsPerExec) {
  const Explorer::Options &Opts = Ex.options();
  CowEligible = Opts.ExploreMode == Explorer::Mode::Exhaustive &&
                Opts.Engine != EnginePath::RootReplay &&
                (Body.CowSafe || (Body.CowSave && Body.CowRestore)) &&
                !M.tracingEnabled();
  M.enableBoundaryScratch(CowEligible);
  if (CowEligible)
    Ex.setSnapshotHook([this](size_t NodeIndex, const char *Tag) {
      onSnapshot(NodeIndex, Tag);
    });
  else
    S.stopJournal();
}

Engine::~Engine() {
  Ex.setSnapshotHook(nullptr);
  M.enableBoundaryScratch(false);
  S.stopJournal();
}

void Engine::onSnapshot(size_t NodeIndex, const char *Tag) {
  if (S.journalMode() != Scheduler::JournalMode::Record)
    return; // Decision outside a journaled run (defensive; not expected).
  if (Depth == Slots.size())
    Slots.emplace_back();
  SnapSlot &Slot = Slots[Depth++];
  Slot.NodeIndex = NodeIndex;
  if (std::strcmp(Tag, "sched") == 0) {
    // Scheduler pick: nothing has mutated since the loop top.
    M.saveSnapshot(Slot.MSnap);
  } else {
    // Operation-level choice (load / load-where / cas) inside a step: the
    // only pre-choice mutation is the choosing thread's SC pre-join, which
    // the machine stashed in the pick scratch; substitute it back so the
    // snapshot is loop-top exact. The divergent sibling re-executes the
    // whole step, re-applying the pre-join itself.
    M.saveSnapshot(Slot.MSnap, S.currentStepThread(), &M.pickCurScratch(),
                   &M.pickAcqScratch());
  }
  Slot.SBound = S.captureBoundary();
  if (Red)
    Slot.RBound = Red->boundary();
  if (Body.CowSave)
    Body.CowSave(Slot.Client);
}

void Engine::rootSetup() {
  M.reset();
  S.reset();
  if (CowEligible)
    S.beginJournal();
  Body.Setup(M, S);
  ++Roots;
}

void Engine::resumeFrom(const SnapSlot &Slot) {
  // Coroutine frames cannot be copied, so client state is re-established
  // by re-running Setup and fast-forwarding the journaled step sequence
  // with machine operations elided; machine state is restored from the
  // snapshot and the memory undo logs.
  S.beginFastForward();
  M.beginReplay();
  S.reset();
  Body.Setup(M, S);
  S.fastForward(Slot.SBound.Steps,
                Body.CowSkipFinished ? Slot.SBound.FinishedMask : 0);
  M.memoryMut().trimToEpoch(Slot.MSnap.MemEpoch);
  M.endReplay(Slot.MSnap.Aux);
  M.restoreSnapshot(Slot.MSnap);
  if (Red)
    Red->restore(Slot.RBound);
  if (Body.CowRestore)
    Body.CowRestore(Slot.Client);
  S.endFastForward(Slot.SBound);
  // The decisions before the boundary are already on the tree path; skip
  // their replay (the explorer counts per-tag statistics over the whole
  // path, so the summary core stays engine-path independent).
  Ex.resumeReplayAt(Slot.SBound.TreePos);
  ++Resumes;
}

Engine::ExecResult Engine::runOne() {
  bool Resumed = false;
  uint64_t BaseSteps = 0;
  if (CowEligible) {
    const auto &Trace = Ex.currentTrace();
    if (!Trace.empty()) {
      // The DFS just advanced the decision at the path's tail; pop the
      // snapshots of the discarded deeper subtree back into the pool.
      const size_t DivIdx = Trace.size() - 1;
      while (Depth != 0 && Slots[Depth - 1].NodeIndex > DivIdx)
        --Depth;
      if (Depth != 0 && Slots[Depth - 1].NodeIndex == DivIdx) {
        resumeFrom(Slots[Depth - 1]);
        BaseSteps = Slots[Depth - 1].SBound.Steps;
        Resumed = true;
      }
      // else: no snapshot for the divergence node (e.g. the previous
      // execution ran under a fallback) — execute from the root below.
    }
  }
  if (!Resumed)
    rootSetup();

  ExecResult Out;
  Out.Run = S.run(MaxSteps);
  StepsLogical += S.steps();
  StepsExecuted += S.steps() - BaseSteps;
  if (Body.Check)
    Out.CheckOk = Body.Check(M, S, Out.Run);
  return Out;
}
