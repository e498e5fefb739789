//===-- sim/Explorer.cpp - Stateless model-checking driver ----------------===//

#include "sim/Explorer.h"

#include "support/Error.h"
#include "support/Json.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

using namespace compass;
using namespace compass::sim;

const char *sim::reductionModeName(ReductionMode M) {
  switch (M) {
  case ReductionMode::None:
    return "none";
  case ReductionMode::SourceSet:
    return "source";
  }
  return "none";
}

bool sim::parseReductionMode(const std::string &S, ReductionMode &Out) {
  if (S == "none")
    Out = ReductionMode::None;
  else if (S == "source")
    Out = ReductionMode::SourceSet;
  else
    return false;
  return true;
}

const char *sim::enginePathName(EnginePath P) {
  return P == EnginePath::RootReplay ? "root" : "auto";
}

bool sim::parseEnginePath(const std::string &S, EnginePath &Out) {
  if (S == "auto")
    Out = EnginePath::Auto;
  else if (S == "root")
    Out = EnginePath::RootReplay;
  else
    return false;
  return true;
}

Explorer::Explorer(Options O)
    : Opts(O), Rand(O.Seed), Start(std::chrono::steady_clock::now()),
      LastProgress(Start) {
  if (Opts.Reduction == ReductionMode::SourceSet &&
      Opts.ExploreMode == Mode::Exhaustive)
    Red.emplace();
}

Explorer::Explorer() : Explorer(Options{}) {}

Explorer::Explorer(Options O, DecisionTree::Prefix Seed)
    : Explorer(O) {
  // Consume the donor's sleep snapshot before the path moves into the
  // tree; the reduction validates its recomputed state against it when
  // replay reaches the seeded ordinal.
  if (Red && Seed.HasSleep)
    Red->setSeed(std::move(Seed.Sleep), Seed.SleepOrdinal);
  Tree = DecisionTree(std::move(Seed));
  // The pinned seed lies on every path this explorer executes.
  for (const DecisionTree::Decision &D : Tree.trace())
    pushPathStat(D.Tag, D.Count);
}

bool Explorer::hasWork() const {
  if (Opts.ExploreMode == Mode::Random)
    return Sum.Executions < Opts.RandomRuns;
  return HasWork && !Tree.exhausted() && Sum.Executions < Opts.MaxExecutions;
}

bool Explorer::beginExecution() {
  assert(!InExecution && "beginExecution without matching endExecution");
  if (!hasWork())
    return false;
  if (Opts.ExploreMode == Mode::Random)
    RandTrace.clear();
  else
    Tree.beginExecution();
  if (Red)
    Red->beginExecution();
  InExecution = true;
  return true;
}

size_t Explorer::tagIndex(const char *Tag) {
  // Per-tag statistics, keyed by pointer identity of the static string
  // (merged by name into Summary.Tags). A linear scan beats hashing for the
  // handful of distinct tags in play.
  for (size_t I = 0, E = TagStats.size(); I != E; ++I)
    if (TagStats[I].first == Tag || std::strcmp(TagStats[I].first, Tag) == 0)
      return I;
  TagStats.push_back({Tag, TagStat{}});
  PathStats.emplace_back();
  return TagStats.size() - 1;
}

void Explorer::pushPathStat(const char *Tag, unsigned Count) {
  const size_t I = tagIndex(Tag);
  PathNodes.push_back({static_cast<uint32_t>(I), Count});
  TagStat &Stat = PathStats[I];
  ++Stat.Choices;
  Stat.AltSum += Count;
  Stat.MaxArity = std::max(Stat.MaxArity, Count);
}

void Explorer::trimPathStats() {
  // Drops the decisions advance() popped. MaxArity stays: it covers every
  // decision ever on the path, all of which lay on a finished execution's
  // path (or will, for the seed) by the time it is folded in.
  while (PathNodes.size() > Tree.depth()) {
    TagStat &Stat = PathStats[PathNodes.back().Tag];
    --Stat.Choices;
    Stat.AltSum -= PathNodes.back().Count;
    PathNodes.pop_back();
  }
}

unsigned Explorer::choose(unsigned Count, const char *Tag) {
  return chooseLimited(Count, Count, Tag);
}

unsigned Explorer::chooseLimited(unsigned Count, unsigned Limit,
                                 const char *Tag) {
  assert(InExecution && "choice outside an execution");
  assert(Count >= 1 && "choice with no alternatives");
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");

  if (Opts.ExploreMode == Mode::Random) {
    TagStat &Stat = TagStats[tagIndex(Tag)].second;
    ++Stat.Choices;
    Stat.AltSum += Count;
    Stat.MaxArity = std::max(Stat.MaxArity, Count);
    // Record the decision even in random mode: a failing sampled run must
    // be reproducible via replay() from currentDecisions(). (Reduction —
    // and with it restricted choice sets — only exists in exhaustive mode,
    // so Limit == Count here; sample within the limit regardless.)
    unsigned Pick = static_cast<unsigned>(Rand.below(Limit));
    RandTrace.push_back({Pick, Count, Count, Tag});
    return Pick;
  }

  const size_t Pos = Tree.position();
  const bool Fresh = !Tree.replaying();
  unsigned First = 0;
  // Record the reduction's covered alternatives for this node (source-set
  // mode; 0 at a non-sched choice). Masks are pure functions of the
  // decision prefix: replayed nodes recompute the identical mask, and
  // nodes skipped by a copy-on-write resume keep the entry their recording
  // execution wrote.
  if (Red) {
    const uint64_t Covered = Red->takePruneMask();
    if (SkipMasks.size() <= Pos)
      SkipMasks.resize(Pos + 1, 0);
    SkipMasks[Pos] = Covered;
    // A fresh node starts at its first alternative not known to be
    // covered; the covered ones before it are skipped without an
    // execution, exactly like covered siblings at advance time. When every
    // alternative is covered, the node starts at 0 and the execution is
    // cut where the reduction prunes it.
    if (Fresh && Covered != 0) {
      First = static_cast<unsigned>(std::countr_one(Covered));
      if (First >= Limit)
        First = 0;
      else
        Sum.SourcePruned += First;
    }
  }

  // A fresh node with more than one alternative left is a potential
  // backtrack target: let the copy-on-write engine snapshot the
  // pre-decision state so sibling alternatives resume here. Replayed nodes
  // (including the pinned seed) already have their snapshots from the
  // execution that created them; nodes with a single enumerable
  // alternative are never advance()/split() targets.
  if (SnapHook && Fresh && Limit - First > 1)
    SnapHook(Pos, Tag);

  if (Fresh)
    pushPathStat(Tag, Count);
  return Tree.next(Count, Limit, Tag, First);
}

size_t Explorer::decisionPosition() const {
  return Opts.ExploreMode == Mode::Random ? RandTrace.size()
                                          : Tree.position();
}

void Explorer::resumeReplayAt(size_t Pos) {
  assert(InExecution && "resumeReplayAt outside an execution");
  assert(Opts.ExploreMode == Mode::Exhaustive);
  Tree.resumeAt(Pos);
}

const std::vector<DecisionTree::Decision> &Explorer::currentTrace() const {
  return Opts.ExploreMode == Mode::Random ? RandTrace : Tree.trace();
}

std::vector<unsigned> Explorer::currentDecisions() const {
  const auto &Trace = currentTrace();
  std::vector<unsigned> Out;
  Out.reserve(Trace.size());
  for (const DecisionTree::Decision &D : Trace)
    Out.push_back(D.Chosen);
  return Out;
}

namespace {

bool traceLexLess(const std::vector<DecisionTree::Decision> &A,
                  const std::vector<DecisionTree::Decision> &B) {
  return std::lexicographical_compare(
      A.begin(), A.end(), B.begin(), B.end(),
      [](const DecisionTree::Decision &X, const DecisionTree::Decision &Y) {
        return X.Chosen < Y.Chosen;
      });
}

} // namespace

void Explorer::recordCheck(bool Ok) {
  assert(InExecution && "recordCheck outside an execution");
  if (Ok)
    return;
  ++Sum.Violations;
  const auto &Trace = currentTrace();
  // Keep the lexicographically least violating trace: DFS visits decision
  // sequences in lexicographic order, so this is exactly the first
  // violation serial exploration encounters — worker-count independent.
  if (!Sum.HasViolation || traceLexLess(Trace, Sum.FirstViolation)) {
    Sum.HasViolation = true;
    Sum.FirstViolation = Trace;
  }
}

void Explorer::endExecution(Scheduler::RunResult R) {
  assert(InExecution && "endExecution without beginExecution");
  InExecution = false;
  ++Sum.Executions;
  switch (R) {
  case Scheduler::RunResult::Done:
    ++Sum.Completed;
    break;
  case Scheduler::RunResult::Deadlock:
    ++Sum.Deadlocks;
    break;
  case Scheduler::RunResult::Race:
    ++Sum.Races;
    break;
  case Scheduler::RunResult::StepLimit:
    ++Sum.Diverged;
    break;
  case Scheduler::RunResult::Pruned:
    ++Sum.Pruned;
    break;
  case Scheduler::RunResult::SleepPruned:
    ++Sum.SleepPruned;
    break;
  case Scheduler::RunResult::RfPruned:
    ++Sum.RfPruned;
    break;
  }

  Sum.MaxDepth = std::max<uint64_t>(Sum.MaxDepth, currentTrace().size());

  if (Opts.ExploreMode == Mode::Exhaustive) {
    // Every decision on the finished path went through choose() in this
    // execution, replayed or fresh, or was skipped by a copy-on-write
    // resume that a root replay would have sent through choose(): the
    // path's per-tag totals are exactly this execution's choice counts.
    for (size_t I = 0, E = TagStats.size(); I != E; ++I) {
      TagStat &Dst = TagStats[I].second;
      const TagStat &Src = PathStats[I];
      Dst.Choices += Src.Choices;
      Dst.AltSum += Src.AltSum;
      Dst.MaxArity = std::max(Dst.MaxArity, Src.MaxArity);
    }
    Sum.Perf.PeakFrontier =
        std::max(Sum.Perf.PeakFrontier, Tree.frontierSize());
    HasWork = Tree.advance();
    // Source-set advance-time skipping: after each backtrack the path's
    // final decision is the freshly advanced alternative. If the reduction
    // proved that sibling fully covered (Prune verdict recorded at its
    // choice point), discard the subtree without running an execution and
    // advance again. The skippable masks are pure functions of the
    // (unchanged) prefix above the node, so this is exactly the verdict an
    // execution taking the alternative would have received.
    while (HasWork) {
      const auto &Trace = Tree.trace();
      if (!skippableAt(Trace.size() - 1, Trace.back().Chosen))
        break;
      ++Sum.SourcePruned;
      HasWork = Tree.advance();
    }
    trimPathStats();
    if (!HasWork)
      Sum.Exhausted = true;
  }

  // Perf and Tags are filled where they are read (summary() and the
  // progress line), not here: this runs once per execution.
  if (Opts.ProgressIntervalSec > 0) {
    auto Now = std::chrono::steady_clock::now();
    double Since =
        std::chrono::duration<double>(Now - LastProgress).count();
    if (Since >= Opts.ProgressIntervalSec) {
      LastProgress = Now;
      finalizePerf(Now);
      std::fprintf(stderr,
                   "[explore] %llu execs, %.0f execs/s, depth<=%llu, "
                   "frontier~%llu\n",
                   static_cast<unsigned long long>(Sum.Executions),
                   Sum.Perf.ExecsPerSec,
                   static_cast<unsigned long long>(Sum.MaxDepth),
                   static_cast<unsigned long long>(Tree.frontierSize()));
    }
  }
}

const Explorer::Summary &Explorer::summary() {
  finalizePerf(std::chrono::steady_clock::now());
  return Sum;
}

void Explorer::finalizePerf(std::chrono::steady_clock::time_point Now) {
  double Wall = std::chrono::duration<double>(Now - Start).count();
  Sum.Perf.WallSeconds = Wall;
  Sum.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Sum.Executions) / Wall : 0.0;
  Sum.Tags.clear();
  for (const auto &[Tag, Stat] : TagStats) {
    if (Stat.Choices == 0)
      continue; // Seen only on a seed no execution has run yet.
    TagStat &Dst = Sum.Tags[Tag];
    Dst.Choices += Stat.Choices;
    Dst.AltSum += Stat.AltSum;
    Dst.MaxArity = std::max(Dst.MaxArity, Stat.MaxArity);
  }
}

bool Explorer::skippableAt(size_t Pos, unsigned Alt) const {
  // Mask bit k set = sched alternative k is one the source-set reduction
  // prunes. Masks cover the first 64 alternatives only, and are recorded in
  // source-set mode only.
  return Alt < 64 && Pos < SkipMasks.size() && ((SkipMasks[Pos] >> Alt) & 1);
}

void Explorer::dropSkippedDonations(std::vector<DecisionTree::Prefix> &Out,
                                    bool KeepLast) {
  if (!Red || Out.empty())
    return;
  const size_t Limit = Out.size() - (KeepLast ? 1 : 0);
  size_t W = 0;
  for (size_t I = 0, E = Out.size(); I != E; ++I) {
    if (I < Limit && !Out[I].Path.empty() &&
        skippableAt(Out[I].Path.size() - 1, Out[I].Path.back().Chosen)) {
      ++Sum.SourcePruned;
      continue;
    }
    if (W != I)
      Out[W] = std::move(Out[I]);
    ++W;
  }
  Out.resize(W);
}

bool Explorer::splittable() const {
  return !InExecution && Opts.ExploreMode == Mode::Exhaustive &&
         HasWork && Tree.splittable();
}

std::vector<DecisionTree::Prefix> Explorer::split(size_t MaxDonations) {
  assert(!InExecution && "split mid-execution");
  std::vector<DecisionTree::Prefix> Out = Tree.split(MaxDonations);
  // Donations the serial advance loop would have skipped are counted here
  // (on the donor) instead of shipped — a recipient would run an execution
  // on them, and the fingerprint would depend on the work distribution.
  dropSkippedDonations(Out, /*KeepLast=*/false);
  if (Red)
    for (DecisionTree::Prefix &P : Out)
      Red->annotate(P);
  return Out;
}

std::vector<DecisionTree::Prefix> Explorer::drainFrontier() {
  assert(!InExecution && "drainFrontier mid-execution");
  assert(Opts.ExploreMode == Mode::Exhaustive &&
         "only exhaustive exploration has a frontier to drain");
  std::vector<DecisionTree::Prefix> Out;
  if (HasWork && !Tree.exhausted()) {
    Out = Tree.frontierPrefixes();
    // The final element is the pinned current path — advance-vetted, never
    // filtered; the alternative prefixes before it get the same skip test
    // as split() donations.
    dropSkippedDonations(Out, /*KeepLast=*/true);
    // Like split(): carry the sleep state so recipients can cross-check
    // their recomputation (annotation is validation only — the state is a
    // pure function of the path).
    if (Red)
      for (DecisionTree::Prefix &P : Out)
        Red->annotate(P);
  }
  // The executed share of this subtree is complete; its unexplored
  // remainder now lives in Out and carries its own exhaustion accounting.
  HasWork = false;
  Sum.Exhausted = true;
  return Out;
}

std::string
Explorer::formatTrace(const std::vector<DecisionTree::Decision> &Trace) {
  std::string Out;
  if (Trace.empty())
    return "<empty decision trace>\n";
  for (size_t I = 0, E = Trace.size(); I != E; ++I) {
    const DecisionTree::Decision &D = Trace[I];
    Out += "#" + std::to_string(I) + " ";
    Out += D.Tag ? D.Tag : "?";
    Out += " (" + std::to_string(D.Count) + " alts) -> " +
           std::to_string(D.Chosen) + "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Summary
//===----------------------------------------------------------------------===//

std::vector<unsigned> Explorer::Summary::firstViolationDecisions() const {
  std::vector<unsigned> Out;
  Out.reserve(FirstViolation.size());
  for (const DecisionTree::Decision &D : FirstViolation)
    Out.push_back(D.Chosen);
  return Out;
}

bool Explorer::Summary::coreEquals(const Summary &O) const {
  auto SameTrace = [](const std::vector<DecisionTree::Decision> &A,
                      const std::vector<DecisionTree::Decision> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0, E = A.size(); I != E; ++I) {
      if (A[I].Chosen != B[I].Chosen || A[I].Count != B[I].Count)
        return false;
      const char *Ta = A[I].Tag ? A[I].Tag : "";
      const char *Tb = B[I].Tag ? B[I].Tag : "";
      if (std::strcmp(Ta, Tb) != 0)
        return false;
    }
    return true;
  };
  auto SameTags = [](const std::map<std::string, TagStat> &A,
                     const std::map<std::string, TagStat> &B) {
    if (A.size() != B.size())
      return false;
    for (auto ItA = A.begin(), ItB = B.begin(); ItA != A.end();
         ++ItA, ++ItB) {
      if (ItA->first != ItB->first ||
          ItA->second.Choices != ItB->second.Choices ||
          ItA->second.AltSum != ItB->second.AltSum ||
          ItA->second.MaxArity != ItB->second.MaxArity)
        return false;
    }
    return true;
  };
  return Executions == O.Executions && Completed == O.Completed &&
         Deadlocks == O.Deadlocks && Races == O.Races &&
         Diverged == O.Diverged && Pruned == O.Pruned &&
         SleepPruned == O.SleepPruned && RfPruned == O.RfPruned &&
         SourcePruned == O.SourcePruned && CacheHits == O.CacheHits &&
         Violations == O.Violations && Exhausted == O.Exhausted &&
         MaxDepth == O.MaxDepth && HasViolation == O.HasViolation &&
         SameTrace(FirstViolation, O.FirstViolation) &&
         SameTags(Tags, O.Tags);
}

void Explorer::Summary::mergeCore(const Summary &O) {
  Executions += O.Executions;
  Completed += O.Completed;
  Deadlocks += O.Deadlocks;
  Races += O.Races;
  Diverged += O.Diverged;
  Pruned += O.Pruned;
  SleepPruned += O.SleepPruned;
  RfPruned += O.RfPruned;
  SourcePruned += O.SourcePruned;
  CacheHits += O.CacheHits;
  Violations += O.Violations;
  Exhausted = Exhausted && O.Exhausted;
  MaxDepth = std::max(MaxDepth, O.MaxDepth);
  if (O.HasViolation &&
      (!HasViolation || traceLexLess(O.FirstViolation, FirstViolation))) {
    HasViolation = true;
    FirstViolation = O.FirstViolation;
  }
  for (const auto &[Name, Stat] : O.Tags) {
    TagStat &Dst = Tags[Name];
    Dst.Choices += Stat.Choices;
    Dst.AltSum += Stat.AltSum;
    Dst.MaxArity = std::max(Dst.MaxArity, Stat.MaxArity);
  }
}

std::string Explorer::Summary::str() const {
  std::string Out;
  Out += "executions=" + std::to_string(Executions);
  Out += " completed=" + std::to_string(Completed);
  Out += " deadlocks=" + std::to_string(Deadlocks);
  Out += " races=" + std::to_string(Races);
  Out += " diverged=" + std::to_string(Diverged);
  Out += " pruned=" + std::to_string(Pruned);
  Out += " sleep_pruned=" + std::to_string(SleepPruned);
  Out += " rf_pruned=" + std::to_string(RfPruned);
  Out += " source_pruned=" + std::to_string(SourcePruned);
  Out += " cache_hits=" + std::to_string(CacheHits);
  Out += " violations=" + std::to_string(Violations);
  Out += Exhausted ? " (exhaustive)" : " (truncated)";
  return Out;
}

std::string Explorer::Summary::json() const {
  JsonWriter J;
  J.beginObject();
  J.field("executions", Executions);
  J.field("completed", Completed);
  J.field("deadlocks", Deadlocks);
  J.field("races", Races);
  J.field("diverged", Diverged);
  J.field("pruned", Pruned);
  J.field("sleep_pruned", SleepPruned);
  J.field("rf_pruned", RfPruned);
  J.field("source_pruned", SourcePruned);
  J.field("cache_hits", CacheHits);
  J.field("violations", Violations);
  J.field("exhausted", Exhausted);
  J.field("max_depth", MaxDepth);
  J.field("wall_seconds", Perf.WallSeconds);
  J.field("execs_per_sec", Perf.ExecsPerSec);
  J.field("peak_frontier", Perf.PeakFrontier);
  J.field("peak_queue", Perf.PeakQueue);
  J.field("workers", Perf.Workers);
  J.field("steps_executed", Perf.StepsExecuted);
  J.field("steps_logical", Perf.StepsLogical);
  J.field("cow_resumes", Perf.CowResumes);
  J.field("root_runs", Perf.RootRuns);
  J.key("tags");
  J.beginObject();
  for (const auto &[Name, Stat] : Tags) {
    J.key(Name);
    J.beginObject();
    J.field("choices", Stat.Choices);
    J.field("alt_sum", Stat.AltSum);
    J.field("max_arity", Stat.MaxArity);
    J.field("avg_arity", Stat.avgArity());
    J.endObject();
  }
  J.endObject();
  J.key("first_violation");
  J.beginArray();
  if (HasViolation)
    for (const DecisionTree::Decision &D : FirstViolation)
      J.value(D.Chosen);
  J.endArray();
  J.endObject();
  return J.str();
}
