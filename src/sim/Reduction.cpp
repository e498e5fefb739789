//===-- sim/Reduction.cpp - Source-set POR --------------------------------===//

#include "sim/Reduction.h"

#include "support/Error.h"

#include <cassert>
#include <cstring>

using namespace compass;
using namespace compass::sim;

void Reduction::beginExecution() {
  Cur.clear();
  NumPoints = 0; // Points are recycled in order; their vectors keep
                 // capacity across executions.
  PruneMask = 0;
}

const SleepMove *Reduction::findAsleep(unsigned Tid) const {
  // A sleeping entry refers to its thread's pending operation; the thread
  // has not run since it was put to sleep, so matching by Tid suffices.
  for (const SleepMove &Mv : Cur)
    if (Mv.Tid == Tid)
      return &Mv;
  return nullptr;
}

Reduction::Verdict Reduction::verdictFor(const SleepMove *E,
                                         uint32_t HistLen) const {
  if (!E)
    return Verdict::Run;
  // A sleeping move was kept asleep only through exact commutes (classic
  // independence, or reads that grow no history) plus — for reads/updates
  // — same-location writes covered by the watermark
  // (rmc::sourceKeepsAsleep). A sleeping write's delays are therefore all
  // exact commutes back to the explored sibling: full prune. A sleeping
  // read/update is fully covered exactly when no message was appended to
  // its location since it went to sleep; otherwise only the reads-from
  // options below the watermark are covered, and the move must run
  // restricted to the new ones.
  using K = rmc::Footprint::Kind;
  const rmc::Footprint &Fp = E->Fp;
  const bool Refinable =
      Fp.Atomic && !Fp.Sc && (Fp.K == K::Read || Fp.K == K::Update);
  if (Refinable && HistLen > E->Ver)
    return Verdict::Restricted;
  return Verdict::Prune;
}

void Reduction::insertMove(std::vector<SleepMove> &S, unsigned Tid,
                           const rmc::Footprint &Fp, uint32_t Ver) {
  // Insert sorted by Tid, deduplicating: a thread has one pending move.
  // On dedup the watermark is *raised* to the incoming one: re-sleeping at
  // a later choice point means the sibling branch explored there already
  // covered the move's reads-from options up to the history length recorded
  // at that point (restricted to [old Ver, new Ver) — or trivially, when
  // the point saw no new messages, new Ver == old Ver). Keeping the stale
  // low watermark instead would re-run the same restricted subtree once
  // per delay depth — the delayed copies are Mazurkiewicz-equivalent and
  // must prune, exactly like classic sleep sets prune delayed moves.
  size_t I = 0;
  for (size_t E = S.size(); I != E; ++I) {
    if (S[I].Tid == Tid) {
      if (Ver > S[I].Ver)
        S[I].Ver = Ver;
      return;
    }
    if (S[I].Tid > Tid)
      break;
  }
  S.insert(S.begin() + I, SleepMove{Tid, Fp, Ver});
}

void Reduction::onSchedPoint(const std::vector<unsigned> &Enabled,
                             const std::vector<rmc::Footprint> &Fps,
                             const std::vector<uint32_t> &HistLens) {
  assert(Enabled.size() == Fps.size() && Enabled.size() == HistLens.size());
  // Record the point so split()-time annotation can reconstruct the sleep
  // state of any alternative at it, and so commitPick() finds the moves.
  if (NumPoints == Points.size())
    Points.emplace_back();
  SchedPoint &Pt = Points[NumPoints++];
  Pt.Entry = Cur; // Capacity-reusing copy.
  Pt.Alts.clear();
  Pt.Verdicts.clear();
  for (size_t I = 0, E = Enabled.size(); I != E; ++I)
    Pt.Alts.push_back(SleepMove{Enabled[I], Fps[I], HistLens[I]});

  // Per-alternative verdicts, against the *entry* sleep set. Both the sleep
  // set and the history lengths at this point are pure functions of the
  // decision prefix above it, so the verdict computed for alternative A now
  // equals the verdict any execution choosing A here receives — which is
  // what lets the explorer start a fresh node past Prune-marked
  // alternatives and skip Prune-marked siblings without running them.
  PruneMask = 0;
  for (size_t I = 0, E = Enabled.size(); I != E; ++I) {
    const Verdict V = verdictFor(findAsleep(Enabled[I]), HistLens[I]);
    Pt.Verdicts.push_back(V);
    if (V == Verdict::Prune && I < 64)
      PruneMask |= uint64_t{1} << I;
  }
}

Reduction::Verdict Reduction::commitPick(unsigned Pick) {
  assert(NumPoints != 0 && "commitPick without onSchedPoint");
  const size_t Ord = NumPoints - 1;
  const SchedPoint &Pt = Points[Ord];
  assert(Pick < Pt.Alts.size());

  const Verdict PickV = Pt.Verdicts[Pick];
  if (PickV == Verdict::Restricted) {
    const SleepMove *Asleep = findAsleep(Pt.Alts[Pick].Tid);
    RestrictL = Asleep->Fp.L;
    RestrictVer = Asleep->Ver;
  }

  // DFS order: alternatives j < Pick were fully explored in sibling
  // branches (by this worker or, for donated prefixes, by the donor side)
  // or are covered outright (Prune-marked, never run), so delaying them
  // past covered steps is redundant.
  for (unsigned J = 0; J != Pick; ++J)
    insertMove(Cur, Pt.Alts[J].Tid, Pt.Alts[J].Fp, Pt.Alts[J].Ver);

  // Cross-worker validation: when replaying a donated seed, the state we
  // just recomputed must match the donor's snapshot exactly.
  if (HasSeed && Ord == SeedOrdinal && !(Cur == Seed))
    fatalError("sleep-set state diverged from the donated prefix snapshot; "
               "reduced exploration would depend on work distribution");

  return PickV;
}

Reduction::Verdict Reduction::onSchedule(unsigned Tid, uint32_t HistLen) {
  const SleepMove *E = findAsleep(Tid);
  Verdict V = verdictFor(E, HistLen);
  if (V == Verdict::Restricted) {
    RestrictL = E->Fp.L;
    RestrictVer = E->Ver;
  }
  return V;
}

void Reduction::onStepExecuted(unsigned Tid, const rmc::Footprint &F) {
  // Wake (erase) every sleeping move the keep-asleep relation cannot hold.
  // The executing thread's own entry is always dropped: consecutive steps
  // of one thread are program-ordered and never commute. The scheduler
  // executes a sleeping move only for a restricted re-run.
  size_t Out = 0;
  for (size_t I = 0, E = Cur.size(); I != E; ++I) {
    const SleepMove &Mv = Cur[I];
    if (Mv.Tid != Tid && rmc::sourceKeepsAsleep(F, Mv.Fp)) {
      if (Out != I)
        Cur[Out] = Mv;
      ++Out;
    }
  }
  Cur.resize(Out);
}

void Reduction::setSeed(std::vector<SleepMove> Sleep, size_t Ordinal) {
  Seed = std::move(Sleep);
  SeedOrdinal = Ordinal;
  HasSeed = true;
}

void Reduction::annotate(DecisionTree::Prefix &P) const {
  P.HasSleep = false;
  P.Sleep.clear();
  if (P.Path.empty())
    return;
  const DecisionTree::Decision &Last = P.Path.back();
  if (!Last.Tag || std::strcmp(Last.Tag, "sched") != 0)
    return;

  // The ordinal of the final decision among the sched-tagged decisions of
  // the path; sched decisions correspond 1:1, in order, to the recorded
  // SchedPoints of the execution the path was split from (annotation runs
  // between executions, when the donor's trace prefix up to the split node
  // still matches the last executed path).
  size_t K = 0;
  for (size_t I = 0, E = P.Path.size() - 1; I != E; ++I)
    if (P.Path[I].Tag && std::strcmp(P.Path[I].Tag, "sched") == 0)
      ++K;
  if (K >= NumPoints)
    return; // No execution has reached this point yet; leave unannotated.

  const SchedPoint &Pt = Points[K];
  P.Sleep = Pt.Entry;
  for (unsigned J = 0; J < Last.Chosen && J < Pt.Alts.size(); ++J)
    insertMove(P.Sleep, Pt.Alts[J].Tid, Pt.Alts[J].Fp, Pt.Alts[J].Ver);
  P.SleepOrdinal = K;
  P.HasSleep = true;
}
