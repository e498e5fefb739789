//===-- rmc/Machine.cpp - Operational RC11 view machine -------------------===//

#include "rmc/Machine.h"

#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::rmc;

// Trace lines are assembled from std::string temporaries; guard every call
// site so the untraced hot path (the explorer runs millions of executions
// with tracing off) never materializes them.
#define COMPASS_TRACE(T, Expr)                                                 \
  do {                                                                         \
    if (Tracing)                                                               \
      traceOp((T), (Expr));                                                    \
  } while (0)

Knowledge &Machine::ThreadState::relSlot(Loc L) {
  for (size_t I = 0; I != RelLive; ++I)
    if (Rel[I].L == L)
      return Rel[I].K;
  if (RelLive < Rel.size()) {
    // Recycle a retained entry (keeps its Knowledge capacity).
    Rel[RelLive].L = L;
    Rel[RelLive].K.clear();
  } else {
    Rel.push_back(RelEntry{L, Knowledge()});
  }
  return Rel[RelLive++].K;
}

void Machine::ThreadState::clear() {
  Cur.clear();
  Acq.clear();
  RelFence.clear();
  RelLive = 0;
  HasRead = false;
  LastReadLoc = 0;
  LastReadTs = 0;
  Pinned = false;
  PinSession = 0;
}

unsigned Machine::addThread() {
  if (LiveThreads < Threads.size())
    Threads[LiveThreads].clear();
  else
    Threads.emplace_back();
  return static_cast<unsigned>(LiveThreads++);
}

void Machine::reset() {
  Mem.reset();
  LiveThreads = 0;
  ScPhys.clear();
  Raced = false;
  RaceMsg.clear();
  FaultRule = "RACE";
  Trace.clear();
  LastFp = Footprint();
  Replaying = false;
  ReadTsLog.clear();
  ReadTsCursor = 0;
  ReadKnowLog.clear();
  ReadKnowCursor = 0;
  ReserveSeq = 0;
  RfFloorOn = false;
  RfFloorEmpty = false;
  // Counters and OpSeqN are monotonic across resets by design; Tracing is
  // sticky (its enabler re-asserts it per run).
}

//===----------------------------------------------------------------------===//
// Copy-on-write support
//===----------------------------------------------------------------------===//

void Machine::beginReplay() {
  Replaying = true;
  ReadTsCursor = 0;
  ReadKnowCursor = 0;
  ReserveSeq = 0;
  Mem.beginReplayAlloc();
  // Threads re-register densely during Setup; their retained states are
  // garbage until restoreSnapshot overwrites them.
  LiveThreads = 0;
}

void Machine::endReplay(const AuxMark &Boundary) {
  if (ReadTsCursor != Boundary.ReadTs ||
      ReadKnowCursor != Boundary.ReadKnow ||
      ReserveSeq != Boundary.Reserves)
    fatalError("copy-on-write fast-forward diverged: last-read query "
               "journals out of sync with the snapshot boundary");
  ReadTsLog.resize(Boundary.ReadTs);
  ReadKnowLog.resize(Boundary.ReadKnow);
  Replaying = false;
  Mem.setReplayAlloc(false);
}

void Machine::saveSnapshot(Snap &S, unsigned FixTid, const View *FixCur,
                           const View *FixAcq) const {
  S.LiveThreads = LiveThreads;
  if (S.Threads.size() < LiveThreads)
    S.Threads.resize(LiveThreads);
  for (size_t T = 0; T != LiveThreads; ++T) {
    const ThreadState &TS = Threads[T];
    ThreadSnap &Out = S.Threads[T];
    Out.Cur = TS.Cur;
    Out.Acq = TS.Acq;
    Out.RelFence = TS.RelFence;
    if (Out.Rel.size() < TS.RelLive)
      Out.Rel.resize(TS.RelLive);
    for (size_t I = 0; I != TS.RelLive; ++I) {
      Out.Rel[I].first = TS.Rel[I].L;
      Out.Rel[I].second = TS.Rel[I].K;
    }
    Out.RelLive = TS.RelLive;
    Out.HasRead = TS.HasRead;
    Out.LastReadLoc = TS.LastReadLoc;
    Out.LastReadTs = TS.LastReadTs;
    Out.Pinned = TS.Pinned;
    Out.PinSession = TS.PinSession;
    if (T == FixTid) {
      // Mid-operation snapshot: undo this step's SC pre-join (the only
      // pre-choice mutation) so the snapshot is boundary-exact.
      if (FixCur)
        Out.Cur.Phys = *FixCur;
      if (FixAcq)
        Out.Acq.Phys = *FixAcq;
    }
  }
  S.ScPhys = ScPhys;
  S.MemEpoch = Mem.epoch();
  S.Aux = auxMark();
}

void Machine::restoreSnapshot(const Snap &S) {
  if (LiveThreads != S.LiveThreads)
    fatalError("copy-on-write restore: thread count diverged from snapshot");
  for (size_t T = 0; T != LiveThreads; ++T) {
    const ThreadSnap &In = S.Threads[T];
    ThreadState &TS = Threads[T];
    TS.Cur = In.Cur;
    TS.Acq = In.Acq;
    TS.RelFence = In.RelFence;
    if (TS.Rel.size() < In.RelLive)
      TS.Rel.resize(In.RelLive);
    for (size_t I = 0; I != In.RelLive; ++I) {
      TS.Rel[I].L = In.Rel[I].first;
      TS.Rel[I].K = In.Rel[I].second;
    }
    TS.RelLive = In.RelLive;
    TS.HasRead = In.HasRead;
    TS.LastReadLoc = In.LastReadLoc;
    TS.LastReadTs = In.LastReadTs;
    TS.Pinned = In.Pinned;
    TS.PinSession = In.PinSession;
  }
  ScPhys = S.ScPhys;
  // A snapshot boundary is a step the execution passed without a pending
  // fault, so fault state restores to the constant no-fault value.
  Raced = false;
  RaceMsg.clear();
  FaultRule = "RACE";
}

Machine::ThreadState &Machine::thread(unsigned T) {
  if (T >= LiveThreads)
    fatalError("unknown thread id");
  return Threads[T];
}

const Machine::ThreadState &Machine::thread(unsigned T) const {
  if (T >= LiveThreads)
    fatalError("unknown thread id");
  return Threads[T];
}

Knowledge &Machine::threadCur(unsigned T) { return thread(T).Cur; }

const Knowledge &Machine::threadCur(unsigned T) const {
  return thread(T).Cur;
}

Knowledge &Machine::threadAcq(unsigned T) { return thread(T).Acq; }

const Knowledge &Machine::lastReadKnowledge(unsigned T) const {
  if (Replaying) {
    if (ReadKnowCursor >= ReadKnowLog.size())
      fatalError("lastReadKnowledge journal underrun during fast-forward");
    auto [L, Ts] = ReadKnowLog[ReadKnowCursor++];
    // The prefix's messages are still in memory (replay-alloc preserves
    // histories), so the journaled coordinates resolve to the same view.
    return Mem.cell(L).know(Ts);
  }
  const ThreadState &TS = thread(T);
  if (!TS.HasRead)
    fatalError("lastReadKnowledge: thread has not performed a read");
  ReadKnowLog.push_back({TS.LastReadLoc, TS.LastReadTs});
  return Mem.cell(TS.LastReadLoc).know(TS.LastReadTs);
}

Timestamp Machine::lastReadTs(unsigned T) const {
  if (Replaying) {
    if (ReadTsCursor >= ReadTsLog.size())
      fatalError("lastReadTs journal underrun during fast-forward");
    return ReadTsLog[ReadTsCursor++];
  }
  const ThreadState &TS = thread(T);
  if (!TS.HasRead)
    fatalError("lastReadTs: thread has not performed a read");
  ReadTsLog.push_back(TS.LastReadTs);
  return TS.LastReadTs;
}

void Machine::reportFault(const char *Rule, std::string Msg) {
  if (Raced)
    return; // First fault wins; the scheduler stops at the next step.
  Raced = true;
  FaultRule = Rule;
  RaceMsg = std::move(Msg);
}

void Machine::reportRace(unsigned T, Loc L, const char *What) {
  reportFault("RACE", "data race: thread " + std::to_string(T) + " " +
                          What + " on '" + Mem.cellName(L) +
                          "' without having observed all writes to it");
}

void Machine::checkNotFreed(unsigned T, Loc L, const char *What) {
  const Cell &C = Mem.cell(L);
  if (C.Life == CellLife::Freed)
    reportFault("USE_AFTER_RETIRE",
                "use after retire: thread " + std::to_string(T) + " " +
                    What + " on '" + Mem.cellName(L) +
                    "', which was retired and freed before the access");
}

void Machine::traceOp(unsigned T, const std::string &Line) {
  Trace.push_back("T" + std::to_string(T) + ": " + Line);
}

void Machine::applyRead(ThreadState &TS, Loc L, const Cell &C,
                        Timestamp Ts, MemOrder O) {
  // Every atomic read raises the per-location component of cur and folds
  // the message into acq; acquire reads fold it into cur as well
  // (ACQ-READ, Section 2.3).
  TS.Cur.Phys.raise(L, Ts);
  TS.Acq.Phys.raise(L, Ts);
  TS.Acq.joinWith(C.know(Ts));
  if (isAcquire(O))
    TS.Cur.joinWith(C.know(Ts));
  TS.HasRead = true;
  TS.LastReadLoc = L;
  TS.LastReadTs = Ts;
}

const Knowledge &Machine::relView(const ThreadState &TS, Loc L) {
  RelScratch = TS.RelFence; // Capacity-reusing copy into the scratch.
  if (const Knowledge *K = TS.findRel(L))
    RelScratch.joinWith(*K);
  return RelScratch;
}

Timestamp Machine::applyWrite(unsigned T, ThreadState &TS, Loc L, Value V,
                              Knowledge MsgK, bool Release) {
  Timestamp Ts = Mem.append(L, V, MsgK, T);
  // The message's view includes the write itself (REL-WRITE's
  // `h[t ↦ (v, V')]` with `t ∈ V'`).
  Knowledge &K = Mem.knowRef(L, Ts);
  K.Phys.raise(L, Ts);
  TS.Cur.Phys.raise(L, Ts);
  TS.Acq.Phys.raise(L, Ts);
  if (Release)
    TS.relSlot(L) = K;
  return Ts;
}

Value Machine::load(unsigned T, Loc L, MemOrder O) {
  ++Counters.Loads;
  noteOp(L, Footprint::Kind::Read, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "load");

  if (O == MemOrder::NonAtomic) {
    if (TS.Cur.Phys.get(L) != C.latestTs())
      reportRace(T, L, "non-atomic read");
    COMPASS_TRACE(T, "ld.na " + Mem.cellName(L) + " -> " +
                         std::to_string(C.latestVal()));
    return C.latestVal();
  }

  if (ScratchOn) {
    // Boundary scratch for a mid-operation snapshot (see Machine.h): the
    // SC pre-join below is the only pre-choice thread-view mutation.
    PickCurScratch = TS.Cur.Phys;
    PickAcqScratch = TS.Acq.Phys;
  }
  if (O == MemOrder::SeqCst) {
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
  }

  Timestamp From = TS.Cur.Phys.get(L);
  const unsigned NFull = Mem.countReadableFrom(L, From);
  unsigned N = NFull;
  // A pending reads-from floor (source-set restricted re-run) cuts the old
  // tail of the newest-first choice set; the restricted set is non-empty
  // by construction (the floor is only installed when newer messages
  // exist) and a prefix of the unrestricted enumeration. The decision is
  // still recorded at the *unrestricted* arity, with the restricted count
  // as its enumeration limit — so the trace replays unchanged through a
  // reduction-free re-run, which sees the full choice set here.
  if (const uint32_t Floor = takeRfFloor(L))
    if (static_cast<Timestamp>(Floor) > From)
      N = Mem.countReadableFrom(L, static_cast<Timestamp>(Floor));
  unsigned Pick = NFull == 1 ? 0
                  : N < NFull ? Choices.chooseLimited(NFull, N, "load")
                              : Choices.choose(NFull, "load");
  // Choice 0 reads the newest message; choice N-1 the oldest readable.
  Timestamp Ts = C.latestTs() - Pick;
  applyRead(TS, L, C, Ts, O);
  if (O == MemOrder::SeqCst)
    ScPhys.joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("ld.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " -> " +
                       std::to_string(C.val(Ts)) + " @t" +
                       std::to_string(Ts));
  return C.val(Ts);
}

Value Machine::loadWhere(unsigned T, Loc L, MemOrder O,
                         const ValuePred &Pred) {
  ++Counters.Loads;
  noteOp(L, Footprint::Kind::Read, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "conditional load");
  assert(O != MemOrder::NonAtomic && "conditional loads must be atomic");

  if (ScratchOn) {
    PickCurScratch = TS.Cur.Phys;
    PickAcqScratch = TS.Acq.Phys;
  }
  if (O == MemOrder::SeqCst) {
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
  }

  Timestamp From = TS.Cur.Phys.get(L);
  // Collect readable messages satisfying the predicate, newest first.
  SmallVec<Timestamp, 16> &Candidates = CandScratch;
  Candidates.clear();
  for (Timestamp Ts = C.latestTs() + 1; Ts-- > From;)
    if (Pred(C.val(Ts)))
      Candidates.push_back(Ts);
  if (Candidates.empty())
    fatalError("loadWhere: no readable message satisfies the predicate");
  // A pending reads-from floor keeps only the candidates at or past it — a
  // prefix of the newest-first enumeration, so the choice is recorded at
  // the unrestricted arity with the restricted count as its enumeration
  // limit (replay-compatible with a reduction-free re-run). Unlike a plain
  // load the restricted set can be empty (no *new* message satisfies the
  // predicate): the step then reads the newest unrestricted candidate
  // without recording a choice — the execution is already fully covered
  // and the scheduler abandons it as RfPruned right after the step, so no
  // trace of it survives to be replayed.
  const unsigned NumFull = static_cast<unsigned>(Candidates.size());
  unsigned NumChoices = NumFull;
  bool RestrictedEmpty = false;
  if (const uint32_t Floor = takeRfFloor(L)) {
    unsigned Kept = 0;
    while (Kept != NumChoices &&
           Candidates[Kept] >= static_cast<Timestamp>(Floor))
      ++Kept;
    if (Kept == 0) {
      RestrictedEmpty = true;
      RfFloorEmpty = true;
    } else {
      NumChoices = Kept;
    }
  }
  unsigned Pick = 0;
  if (!RestrictedEmpty && NumFull > 1)
    Pick = NumChoices < NumFull
               ? Choices.chooseLimited(NumFull, NumChoices, "load-where")
               : Choices.choose(NumFull, "load-where");
  Timestamp Ts = Candidates[Pick];
  applyRead(TS, L, C, Ts, O);
  if (O == MemOrder::SeqCst)
    ScPhys.joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("ld-wait.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " -> " +
                       std::to_string(C.val(Ts)) + " @t" +
                       std::to_string(Ts));
  return C.val(Ts);
}

bool Machine::anyReadableSatisfies(unsigned T, Loc L,
                                   const ValuePred &Pred) const {
  const ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  for (Timestamp Ts = TS.Cur.Phys.get(L); Ts <= C.latestTs(); ++Ts)
    if (Pred(C.val(Ts)))
      return true;
  return false;
}

void Machine::store(unsigned T, Loc L, Value V, MemOrder O) {
  ++Counters.Stores;
  noteOp(L, Footprint::Kind::Write, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "store");

  if (O == MemOrder::NonAtomic) {
    if (TS.Cur.Phys.get(L) != C.latestTs())
      reportRace(T, L, "non-atomic write");
    // Non-atomic messages transfer no knowledge.
    applyWrite(T, TS, L, V, Knowledge(), /*Release=*/false);
    COMPASS_TRACE(T, "st.na " + Mem.cellName(L) + " := " +
                         std::to_string(V));
    return;
  }

  bool Release = isRelease(O);
  Knowledge MsgK = Release ? TS.Cur : relView(TS, L);
  applyWrite(T, TS, L, V, std::move(MsgK), Release);
  if (O == MemOrder::SeqCst)
    ScPhys.joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("st.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " := " + std::to_string(V));
}

Machine::CasResult Machine::cas(unsigned T, Loc L, Value Expected,
                                Value Desired, MemOrder SuccO,
                                MemOrder FailO) {
  ++Counters.Rmws;
  const bool Sc = SuccO == MemOrder::SeqCst || FailO == MemOrder::SeqCst;
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "compare-and-swap");
  assert(SuccO != MemOrder::NonAtomic && FailO != MemOrder::NonAtomic &&
         "CAS must be atomic");

  if (ScratchOn) {
    PickCurScratch = TS.Cur.Phys;
    PickAcqScratch = TS.Acq.Phys;
  }
  if (Sc) {
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
  }

  Timestamp From = TS.Cur.Phys.get(L);
  Timestamp Latest = C.latestTs();

  // Alternative 0 (when available): succeed against the mo-maximal message.
  // Remaining alternatives: fail by reading any readable message with a
  // different value, newest first. A readable non-maximal message carrying
  // the expected value is not a legal read for a strong CAS (atomicity
  // would be violated), so it is simply not offered.
  bool CanSucceed = C.latestVal() == Expected;
  SmallVec<Timestamp, 16> &FailTs = FailScratch;
  FailTs.clear();
  for (Timestamp Ts = Latest + 1; Ts-- > From;)
    if (C.val(Ts) != Expected)
      FailTs.push_back(Ts);

  const unsigned NumFailsFull = static_cast<unsigned>(FailTs.size());
  unsigned NumFails = NumFailsFull;
  // A pending reads-from floor cuts the old tail of the newest-first fail
  // reads (the success alternative reads the mo-maximum, which is always
  // at or past the floor); as with loads, the choice is recorded at the
  // unrestricted arity with the restricted count as its enumeration limit
  // so replay stays decision-compatible. Never empty: either the
  // mo-maximum carries the expected value (success is offered) or it is
  // itself a fail candidate at or past the floor.
  if (const uint32_t Floor = takeRfFloor(L)) {
    unsigned Kept = 0;
    while (Kept != NumFails &&
           FailTs[Kept] >= static_cast<Timestamp>(Floor))
      ++Kept;
    NumFails = Kept;
  }

  const unsigned NumAllFull = (CanSucceed ? 1 : 0) + NumFailsFull;
  unsigned NumAlternatives = (CanSucceed ? 1 : 0) + NumFails;
  if (NumAlternatives == 0)
    fatalError("CAS has no legal read; history corrupt");
  unsigned Pick =
      NumAllFull == 1 ? 0
      : NumAlternatives < NumAllFull
          ? Choices.chooseLimited(NumAllFull, NumAlternatives, "cas")
          : Choices.choose(NumAllFull, "cas");

  if (CanSucceed && Pick == 0) {
    noteOp(L, Footprint::Kind::Update, Sc, /*Atomic=*/true);
    applyRead(TS, L, C, Latest, SuccO);
    // Release-sequence behaviour: the new message carries the read
    // message's view, so a chain of RMWs forwards earlier releases.
    Knowledge MsgK = C.know(Latest);
    MsgK.joinWith(isRelease(SuccO) ? TS.Cur : relView(TS, L));
    applyWrite(T, TS, L, Desired, std::move(MsgK), isRelease(SuccO));
    if (SuccO == MemOrder::SeqCst)
      ScPhys.joinWith(TS.Cur.Phys);
    COMPASS_TRACE(T, std::string("cas.") + memOrderName(SuccO) + " " +
                         Mem.cellName(L) + " " + std::to_string(Expected) +
                         " -> " + std::to_string(Desired) + " ok");
    return {true, Expected};
  }

  // A failed CAS only reads.
  noteOp(L, Footprint::Kind::Read, Sc, /*Atomic=*/true);
  Timestamp RTs = FailTs[Pick - (CanSucceed ? 1 : 0)];
  applyRead(TS, L, C, RTs, FailO);
  if (FailO == MemOrder::SeqCst)
    ScPhys.joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("cas.") + memOrderName(FailO) + " " +
                       Mem.cellName(L) + " exp " +
                       std::to_string(Expected) + " saw " +
                       std::to_string(C.val(RTs)) + " fail");
  return {false, C.val(RTs)};
}

Value Machine::fetchAdd(unsigned T, Loc L, Value Add, MemOrder O) {
  ++Counters.Rmws;
  noteOp(L, Footprint::Kind::Update, O == MemOrder::SeqCst,
         /*Atomic=*/true);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "fetch-add");
  assert(O != MemOrder::NonAtomic && "RMW must be atomic");
  // A fetch-add has no reads-from choice (it reads the mo-maximum, which
  // is always at or past any pending floor); just consume the floor.
  (void)takeRfFloor(L);

  if (O == MemOrder::SeqCst) {
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
  }

  // An RMW reads the mo-maximal message (DESIGN.md Section 4).
  Timestamp RTs = C.latestTs();
  Value Old = C.val(RTs);
  applyRead(TS, L, C, RTs, O);
  Knowledge MsgK = C.know(RTs);
  MsgK.joinWith(isRelease(O) ? TS.Cur : relView(TS, L));
  applyWrite(T, TS, L, Old + Add, std::move(MsgK), isRelease(O));
  if (O == MemOrder::SeqCst)
    ScPhys.joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("faa.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " " + std::to_string(Old) +
                       " += " + std::to_string(Add));
  return Old;
}

void Machine::fence(unsigned T, MemOrder O) {
  ++Counters.Fences;
  noteOp(0, Footprint::Kind::Fence, O == MemOrder::SeqCst);
  ThreadState &TS = thread(T);
  switch (O) {
  case MemOrder::Acquire:
    TS.Cur.joinWith(TS.Acq);
    break;
  case MemOrder::Release:
    TS.RelFence = TS.Cur;
    break;
  case MemOrder::AcqRel:
    TS.Cur.joinWith(TS.Acq);
    TS.RelFence = TS.Cur;
    break;
  case MemOrder::SeqCst:
    TS.Cur.joinWith(TS.Acq);
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
    ScPhys = TS.Cur.Phys;
    TS.RelFence = TS.Cur;
    break;
  default:
    fatalError("invalid fence order");
  }
  COMPASS_TRACE(T, std::string("fence.") + memOrderName(O));
}

void Machine::pinEnter(unsigned T) {
  noteOp(0, Footprint::Kind::Reclaim, /*Sc=*/false);
  ThreadState &TS = thread(T);
  if (TS.Pinned)
    fatalError("pinEnter: thread already pinned");
  TS.Pinned = true;
  ++TS.PinSession;
  COMPASS_TRACE(T, "ebr.pin #" + std::to_string(TS.PinSession));
}

void Machine::pinExit(unsigned T) {
  noteOp(0, Footprint::Kind::Reclaim, /*Sc=*/false);
  ThreadState &TS = thread(T);
  if (!TS.Pinned)
    fatalError("pinExit: thread not pinned");
  TS.Pinned = false;
  COMPASS_TRACE(T, "ebr.unpin #" + std::to_string(TS.PinSession));
}

void Machine::retire(unsigned T, Loc L, unsigned Count) {
  noteOp(L, Footprint::Kind::Reclaim, /*Sc=*/false);
  for (unsigned I = 0; I != Count; ++I) {
    Cell &C = Mem.cell(L + I);
    if (C.Life != CellLife::Live)
      fatalError("retire: cell retired twice");
    Mem.setLife(L + I, CellLife::Retired); // Logs prev life + pins.
    C.RetirePins.clear();
    for (size_t P = 0; P != LiveThreads; ++P)
      if (Threads[P].Pinned)
        C.RetirePins.push_back(
            {static_cast<unsigned>(P), Threads[P].PinSession});
  }
  COMPASS_TRACE(T, "ebr.retire " + Mem.cellName(L) + "×" +
                       std::to_string(Count));
}

void Machine::freeCells(unsigned T, Loc L, unsigned Count) {
  noteOp(L, Footprint::Kind::Free, /*Sc=*/false);
  for (unsigned I = 0; I != Count; ++I) {
    Cell &C = Mem.cell(L + I);
    if (C.Life != CellLife::Retired)
      fatalError("freeCells: cell not retired (double free or free of a "
                 "live cell)");
    for (const PinRef &P : C.RetirePins)
      if (Threads[P.Tid].Pinned && Threads[P.Tid].PinSession == P.Session) {
        reportFault("PREMATURE_FREE",
                    "premature free: thread " + std::to_string(T) +
                        " frees '" + Mem.cellName(L + I) +
                        "' while thread " + std::to_string(P.Tid) +
                        " is still pinned in the critical section that "
                        "overlapped the retire");
        break;
      }
    Mem.setLife(L + I, CellLife::Freed);
  }
  COMPASS_TRACE(T, "ebr.free " + Mem.cellName(L) + "×" +
                       std::to_string(Count));
}
