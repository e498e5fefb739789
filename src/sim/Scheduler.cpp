//===-- sim/Scheduler.cpp - Cooperative simulated-thread scheduler --------===//


#include "sim/Scheduler.h"

#include "sim/Reduction.h"
#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::sim;

Env &Scheduler::newThread() {
  unsigned Tid = M.addThread();
  if (LiveThreads < Threads.size()) {
    // Recycle a retained record from an earlier execution. Executions
    // re-create threads in the same order, so the recycled Env (whose M,
    // S and Tid are immutable) is exactly the one this thread needs.
    ThreadRec &Rec = *Threads[LiveThreads];
    assert(Rec.E && Rec.E->Tid == Tid &&
           "thread records must be recycled in creation order");
    Rec.Root = Task<void>(); // Destroys any leftover coroutine frame.
    Rec.Pending = nullptr;
    Rec.NextFp = rmc::Footprint();
    Rec.Started = false;
    Rec.Done = false;
    Rec.Blocked = false;
    Rec.WaitLoc = 0;
    Rec.WaitPred = nullptr;
    Rec.CacheValid = false;
    ++LiveThreads;
    return *Rec.E;
  }
  auto Rec = std::make_unique<ThreadRec>();
  Rec->E = std::make_unique<Env>(Env{M, *this, Tid});
  Env &Out = *Rec->E;
  Threads.push_back(std::move(Rec));
  ++LiveThreads;
  assert(LiveThreads == M.numThreads() &&
         "threads must be created through the scheduler");
  return Out;
}

void Scheduler::reset() {
  LiveThreads = 0;
  Steps = 0;
  Preemptions = 0;
  LastRun = ~0u;
  PruneRequested = false;
  DoneMask = 0;
  // Thread records, PreemptionBound and the reduction hook persist; the
  // caller resets the machine and (for reduced runs) the Reduction
  // separately.
}

void Scheduler::start(Env &E, Task<void> Root) {
  ThreadRec &Rec = *Threads[E.Tid];
  assert(!Rec.Started && "thread already started");
  assert(Rec.E.get() == &E && "start() must use the thread's own Env");
  Rec.Root = std::move(Root);
  Rec.Pending = Rec.Root.handle();
  Rec.Started = true;
  // The first resume runs thread-local setup up to the first memory
  // operation; it touches no shared state.
  Rec.NextFp = rmc::Footprint{0, rmc::Footprint::Kind::Start, false};
}

void Scheduler::park(unsigned Tid, std::coroutine_handle<> H,
                     rmc::Footprint Fp) {
  ThreadRec &Rec = *Threads[Tid];
  assert(!Rec.Pending && "thread parked twice without being scheduled");
  Rec.Pending = H;
  Rec.NextFp = Fp;
  Rec.Blocked = false;
}

void Scheduler::parkBlocked(unsigned Tid, std::coroutine_handle<> H,
                            rmc::Loc L, rmc::ValuePred Pred,
                            rmc::Footprint Fp) {
  ThreadRec &Rec = *Threads[Tid];
  assert(!Rec.Pending && "thread parked twice without being scheduled");
  Rec.Pending = H;
  Rec.NextFp = Fp;
  Rec.Blocked = true;
  Rec.WaitLoc = L;
  Rec.WaitPred = std::move(Pred);
  // The thread just ran (its view may have risen), so any memoized wait
  // verdict is stale.
  Rec.CacheValid = false;
}

Scheduler::RunResult Scheduler::run(uint64_t MaxSteps) {
  for (size_t I = 0; I != LiveThreads; ++I)
    if (!Threads[I]->Started)
      fatalError("scheduler run() with an unstarted thread");

  for (;;) {
    if (M.raceDetected())
      return RunResult::Race;
    if (PruneRequested)
      return RunResult::Pruned;

    Enabled.clear();
    bool AnyUnfinished = false;
    for (unsigned Tid = 0, E = static_cast<unsigned>(LiveThreads); Tid != E;
         ++Tid) {
      ThreadRec &Rec = *Threads[Tid];
      if (Rec.Done)
        continue;
      AnyUnfinished = true;
      if (!Rec.Blocked) {
        Enabled.push_back(Tid);
        continue;
      }
      // Memoized wait scan: a blocked thread's verdict can only change
      // when the awaited cell's history grows (its own view is frozen).
      const size_t Len = M.historyLen(Rec.WaitLoc);
      bool Ready;
      if (Rec.CacheValid && Rec.CacheLoc == Rec.WaitLoc &&
          Rec.CacheLen == Len) {
        Ready = Rec.CacheResult;
      } else {
        Ready = M.anyReadableSatisfies(Tid, Rec.WaitLoc, Rec.WaitPred);
        Rec.CacheLoc = Rec.WaitLoc;
        Rec.CacheLen = Len;
        Rec.CacheResult = Ready;
        Rec.CacheValid = true;
      }
      if (Ready)
        Enabled.push_back(Tid);
    }

    if (!AnyUnfinished)
      return RunResult::Done;
    if (Enabled.empty())
      return RunResult::Deadlock;
    if (Steps >= MaxSteps)
      return RunResult::StepLimit;

    if (Mode == JournalMode::Record) {
      // Loop-top boundary of the step about to execute: the state a
      // snapshot taken at any choice inside it must rewind to. Captured
      // before the scheduler pick below mutates Preemptions/LastRun.
      LoopTop.Steps = Steps;
      LoopTop.Preemptions = Preemptions;
      LoopTop.LastRun = LastRun;
      LoopTop.OpEntries = OpLog.size();
      LoopTop.TreePos = Choices.decisionPosition();
      LoopTop.FinishedMask = DoneMask;
      if (Red)
        Red->saveBoundary();
    }

    // History length of a pending footprint's location — the reads-from
    // watermark material for the source-set refinement. Only read/write/
    // update footprints carry a meaningful location.
    auto HistOf = [this](const rmc::Footprint &Fp) -> uint32_t {
      using K = rmc::Footprint::Kind;
      if (Fp.K != K::Read && Fp.K != K::Write && Fp.K != K::Update)
        return 0;
      return static_cast<uint32_t>(M.historyLen(Fp.L));
    };

    // Preemption bounding (CHESS): once the budget is spent, a thread that
    // is still enabled keeps running; switches are only explored when the
    // current thread blocked or finished, or while budget remains.
    bool LastEnabled = false;
    for (unsigned Tid : Enabled)
      LastEnabled |= Tid == LastRun;
    unsigned Pick;
    bool Chose = false; // Whether a real "sched" decision was recorded.
    if (LastEnabled && Preemptions >= PreemptionBound) {
      Pick = 0;
      while (Enabled[Pick] != LastRun)
        ++Pick;
    } else {
      if (Enabled.size() == 1) {
        Pick = 0;
      } else {
        if (Red) {
          // A real choice point: the reduction judges every alternative
          // before the pick, so the explorer can create a fresh node at
          // its first alternative the reduction does not prune.
          EnabledFps.clear();
          EnabledHist.clear();
          for (unsigned Tid : Enabled) {
            EnabledFps.push_back(Threads[Tid]->NextFp);
            EnabledHist.push_back(HistOf(EnabledFps.back()));
          }
          Red->onSchedPoint(Enabled, EnabledFps, EnabledHist);
        }
        Pick = Choices.choose(static_cast<unsigned>(Enabled.size()),
                              "sched");
        Chose = true;
      }
      if (LastEnabled && Enabled[Pick] != LastRun)
        ++Preemptions;
    }

    bool RestrictedStep = false;
    if (Red) {
      // At a real choice point siblings exist, so alternatives before the
      // pick go to sleep and the pick itself is prune-checked. A forced or
      // singleton pick has no sibling branch covering a delayed version of
      // a sleeping move, so it is only prune-checked.
      const Reduction::Verdict V =
          Chose ? Red->commitPick(Pick)
                : Red->onSchedule(Enabled[Pick],
                                  HistOf(Threads[Enabled[Pick]]->NextFp));
      if (V == Reduction::Verdict::Prune)
        return RunResult::SleepPruned;
      if (V == Reduction::Verdict::Restricted) {
        // Source-set restricted re-run of a sleeping read/update: only the
        // reads-from options at or past the watermark are new; the machine
        // filters the step's choice set accordingly.
        M.setRfFloor(Red->restrictLoc(), Red->restrictVer());
        RestrictedStep = true;
      }
    }

    LastRun = Enabled[Pick];
    ThreadRec &Rec = *Threads[Enabled[Pick]];
    Rec.Blocked = false;
    std::coroutine_handle<> H = Rec.Pending;
    Rec.Pending = nullptr;
    if (Mode == JournalMode::Record)
      StepLog.push_back({LastRun, 0, {}});
    const uint64_t Seq0 = M.opSeq();
    H.resume();
    ++Steps;
    if (Mode == JournalMode::Record) {
      // End-of-step cursor marks, so a fast-forward can skip the whole
      // step (finished thread) by jumping the cursors here.
      StepEnt &Ent = StepLog.back();
      Ent.OpEnd = static_cast<uint32_t>(OpLog.size());
      Ent.AuxEnd = M.auxMark();
    }

    if (RestrictedStep) {
      // The restricted choice set can come up empty only for a predicated
      // spin read (loadWhere): no new message satisfies the predicate, so
      // every reads-from option was covered by the sibling that ran the
      // move before the intervening writes.
      const bool Empty = M.clearRfFloor();
      if (Empty)
        return RunResult::RfPruned;
    }

    if (Red) {
      // Report the executed step so dependent sleeping moves wake. A
      // resume normally performs exactly one machine operation (the parked
      // awaiter's); the start resume and Env::prune perform none. Anything
      // else (client code invoking the machine directly mid-step) is
      // reported with an unknown footprint, which wakes everyone —
      // conservative but sound.
      const uint64_t Delta = M.opSeq() - Seq0;
      if (Delta == 1)
        Red->onStepExecuted(LastRun, M.lastFootprint());
      else if (Delta > 1)
        Red->onStepExecuted(LastRun, rmc::Footprint());
    }

    // The thread either parked a new pending handle (at its next memory
    // operation) or ran to completion.
    if (!Rec.Pending) {
      if (!Rec.Root.done())
        fatalError("thread stopped without parking or ending");
      Rec.Done = true;
      if (LastRun < 64)
        DoneMask |= uint64_t{1} << LastRun;
    }
  }
}

void Scheduler::journalUnderrun() const {
  fatalError("copy-on-write fast-forward diverged: operation journal "
             "exhausted before the snapshot boundary");
}

void Scheduler::fastForward(uint64_t NSteps, uint64_t SkipMask) {
  assert(Mode == JournalMode::Replay &&
         "fastForward requires beginFastForward");
  if (NSteps > StepLog.size())
    fatalError("fast-forward past the recorded prefix");
  for (uint64_t I = 0; I != NSteps; ++I) {
    const StepEnt &Ent = StepLog[I];
    if (Ent.Tid < 64 && (SkipMask >> Ent.Tid & 1)) {
      // The thread is finished at the target boundary, so its recomputed
      // coroutine frame is never resumed in the subtree: skip the resume
      // entirely and jump every journal cursor over the step's entries.
      OpCursor = Ent.OpEnd;
      M.setReplayAux(Ent.AuxEnd);
      continue;
    }
    ThreadRec &Rec = *Threads[Ent.Tid];
    if (!Rec.Pending)
      fatalError("fast-forward scheduled a thread with no pending step");
    Rec.Blocked = false;
    std::coroutine_handle<> H = Rec.Pending;
    Rec.Pending = nullptr;
    H.resume();
    if (!Rec.Pending) {
      if (!Rec.Root.done())
        fatalError("thread stopped without parking or ending");
      Rec.Done = true;
      if (Ent.Tid < 64)
        DoneMask |= uint64_t{1} << Ent.Tid;
    }
  }
  // Mark the skipped threads finished; their never-resumed start frames
  // are destroyed by the next Setup's start().
  for (unsigned Tid = 0; Tid < LiveThreads && Tid < 64; ++Tid)
    if (SkipMask >> Tid & 1) {
      ThreadRec &Rec = *Threads[Tid];
      Rec.Pending = nullptr;
      Rec.Done = true;
      DoneMask |= uint64_t{1} << Tid;
    }
}

void Scheduler::endFastForward(const Boundary &B) {
  if (OpCursor != B.OpEntries)
    fatalError("copy-on-write fast-forward diverged: operation journal "
               "out of sync with the snapshot boundary");
  StepLog.resize(B.Steps);
  OpLog.resize(B.OpEntries);
  OpCursor = 0;
  Steps = B.Steps;
  Preemptions = B.Preemptions;
  LastRun = B.LastRun;
  PruneRequested = false;
  Mode = JournalMode::Record;
  LoopTop = B;
  DoneMask = B.FinishedMask;
  // The rewind may have changed slot contents under unchanged history
  // lengths; every memoized wait verdict is suspect.
  for (size_t I = 0; I != LiveThreads; ++I)
    Threads[I]->CacheValid = false;
}
