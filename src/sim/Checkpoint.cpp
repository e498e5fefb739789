//===-- sim/Checkpoint.cpp - Exploration frontier snapshots ---------------===//
//
// Text grammar (version "snapshot v2"; one record per line, space-
// separated fields, tags are identifier-like and never contain spaces):
//
//   snapshot v2
//   summary <Executions> <Completed> <Deadlocks> <Races> <Diverged>
//           <Pruned> <SleepPruned> <RfPruned> <SourcePruned> <CacheHits>
//           <Violations> <Exhausted> <MaxDepth> <HasViolation>
//   tags <N>
//   tag <name> <Choices> <AltSum> <MaxArity>            (N lines)
//   violation <N>
//   fv <Chosen> <Count> <Tag>                           (N lines)
//   prefixes <N>
//   prefix <NDecisions> <HasSleep> <SleepOrdinal> <NSleep>
//   d <Chosen> <Limit> <Count> <Tag>                    (NDecisions lines)
//   s <Tid> <Loc> <Kind> <Sc> <Atomic> <Ver>            (NSleep lines)
//   end snapshot
//
//===----------------------------------------------------------------------===//

#include "sim/Checkpoint.h"

#include "support/LineRecords.h"

#include <cassert>
#include <mutex>
#include <set>
#include <sstream>

using namespace compass;
using namespace compass::sim;

const char *sim::internTag(std::string_view Tag) {
  static std::mutex Mu;
  static std::set<std::string, std::less<>> Table; // node-based: stable c_str
  std::lock_guard<std::mutex> L(Mu);
  auto It = Table.find(Tag);
  if (It == Table.end())
    It = Table.emplace(Tag).first;
  return It->c_str();
}

namespace {

const char *tagOrDash(const char *Tag) {
  // Tags are static identifiers; "-" stands in for a null tag.
  return Tag && *Tag ? Tag : "-";
}

const char *internOrNull(const std::string &S) {
  return S == "-" ? nullptr : internTag(S);
}

void writeDecision(std::ostringstream &OS, const char *Kind,
                   const DecisionTree::Decision &D) {
  OS << Kind << ' ' << D.Chosen << ' ' << D.Limit << ' ' << D.Count << ' '
     << tagOrDash(D.Tag) << '\n';
}

} // namespace

std::string sim::serializeSnapshot(const ExplorationSnapshot &S) {
  std::ostringstream OS;
  OS << "snapshot v2\n";
  const Explorer::Summary &P = S.Partial;
  OS << "summary " << P.Executions << ' ' << P.Completed << ' '
     << P.Deadlocks << ' ' << P.Races << ' ' << P.Diverged << ' ' << P.Pruned
     << ' ' << P.SleepPruned << ' ' << P.RfPruned << ' ' << P.SourcePruned
     << ' ' << P.CacheHits << ' ' << P.Violations << ' '
     << unsigned(P.Exhausted) << ' ' << P.MaxDepth << ' '
     << unsigned(P.HasViolation) << '\n';
  OS << "tags " << P.Tags.size() << '\n';
  for (const auto &[Name, St] : P.Tags)
    OS << "tag " << (Name.empty() ? "-" : Name.c_str()) << ' ' << St.Choices
       << ' ' << St.AltSum << ' ' << St.MaxArity << '\n';
  OS << "violation " << (P.HasViolation ? P.FirstViolation.size() : 0)
     << '\n';
  if (P.HasViolation)
    for (const DecisionTree::Decision &D : P.FirstViolation)
      writeDecision(OS, "fv", D);
  OS << "prefixes " << S.Frontier.size() << '\n';
  for (const DecisionTree::Prefix &Pf : S.Frontier) {
    OS << "prefix " << Pf.Path.size() << ' ' << unsigned(Pf.HasSleep) << ' '
       << Pf.SleepOrdinal << ' ' << (Pf.HasSleep ? Pf.Sleep.size() : 0)
       << '\n';
    for (const DecisionTree::Decision &D : Pf.Path)
      writeDecision(OS, "d", D);
    if (Pf.HasSleep)
      for (const SleepMove &Mv : Pf.Sleep)
        OS << "s " << Mv.Tid << ' ' << static_cast<uint64_t>(Mv.Fp.L) << ' '
           << unsigned(static_cast<uint8_t>(Mv.Fp.K)) << ' '
           << unsigned(Mv.Fp.Sc) << ' ' << unsigned(Mv.Fp.Atomic) << ' '
           << Mv.Ver << '\n';
  }
  OS << "end snapshot\n";
  return OS.str();
}

namespace {

bool parseDecision(LineCursor &R, const char *Kind,
                   DecisionTree::Decision &D) {
  if (!R.next())
    return false;
  LineFields F(R.Line);
  if (!F.keyword(R, Kind))
    return false;
  std::string Tag;
  if (!F.num(D.Chosen) || !F.num(D.Limit) || !F.num(D.Count) ||
      !F.word(Tag))
    return R.fail("malformed decision");
  if (D.Count == 0 || D.Chosen >= D.Count || D.Limit > D.Count ||
      D.Limit <= D.Chosen)
    return R.fail("decision fields out of range");
  D.Tag = internOrNull(Tag);
  return true;
}

} // namespace

bool sim::parseSnapshot(std::string_view Text, ExplorationSnapshot &Out,
                        std::string &Err) {
  Out = ExplorationSnapshot{};
  LineCursor R(Text, "snapshot");
  auto Done = [&](bool Ok) {
    if (!Ok)
      Err = R.Err;
    return Ok;
  };

  if (!R.next())
    return Done(false);
  if (R.Line != "snapshot v2")
    return Done(R.fail("unsupported snapshot header (want 'snapshot v2')"));

  Explorer::Summary &P = Out.Partial;
  if (!R.next())
    return Done(false);
  {
    LineFields F(R.Line);
    if (!F.keyword(R, "summary"))
      return Done(false);
    if (!F.num(P.Executions) || !F.num(P.Completed) || !F.num(P.Deadlocks) ||
        !F.num(P.Races) || !F.num(P.Diverged) || !F.num(P.Pruned) ||
        !F.num(P.SleepPruned) || !F.num(P.RfPruned) ||
        !F.num(P.SourcePruned) || !F.num(P.CacheHits) ||
        !F.num(P.Violations) || !F.flag(P.Exhausted) || !F.num(P.MaxDepth) ||
        !F.flag(P.HasViolation))
      return Done(R.fail("malformed summary record"));
  }

  uint64_t NTags = 0;
  if (!R.next())
    return Done(false);
  {
    LineFields F(R.Line);
    if (!F.keyword(R, "tags") || !F.num(NTags))
      return Done(R.fail("malformed tags record"));
  }
  for (uint64_t I = 0; I != NTags; ++I) {
    if (!R.next())
      return Done(false);
    LineFields F(R.Line);
    std::string Name;
    Explorer::TagStat St;
    if (!F.keyword(R, "tag") || !F.word(Name) || !F.num(St.Choices) ||
        !F.num(St.AltSum) || !F.num(St.MaxArity))
      return Done(R.fail("malformed tag record"));
    P.Tags[Name == "-" ? "" : Name] = St;
  }

  uint64_t NViol = 0;
  if (!R.next())
    return Done(false);
  {
    LineFields F(R.Line);
    if (!F.keyword(R, "violation") || !F.num(NViol))
      return Done(R.fail("malformed violation record"));
  }
  for (uint64_t I = 0; I != NViol; ++I) {
    DecisionTree::Decision D;
    if (!parseDecision(R, "fv", D))
      return Done(false);
    P.FirstViolation.push_back(D);
  }
  if (P.HasViolation && P.FirstViolation.empty())
    return Done(R.fail("violation flagged but trace missing"));

  uint64_t NPrefixes = 0;
  if (!R.next())
    return Done(false);
  {
    LineFields F(R.Line);
    if (!F.keyword(R, "prefixes") || !F.num(NPrefixes))
      return Done(R.fail("malformed prefixes record"));
  }
  for (uint64_t I = 0; I != NPrefixes; ++I) {
    if (!R.next())
      return Done(false);
    LineFields F(R.Line);
    uint64_t NDec = 0, NSleep = 0;
    DecisionTree::Prefix Pf;
    if (!F.keyword(R, "prefix") || !F.num(NDec) ||
        !F.flag(Pf.HasSleep) || !F.num(Pf.SleepOrdinal) || !F.num(NSleep))
      return Done(R.fail("malformed prefix record"));
    for (uint64_t J = 0; J != NDec; ++J) {
      DecisionTree::Decision D;
      if (!parseDecision(R, "d", D))
        return Done(false);
      if (D.Limit != D.Chosen + 1)
        return Done(R.fail("checkpoint prefix decision is not pinned"));
      Pf.Path.push_back(D);
    }
    for (uint64_t J = 0; J != NSleep; ++J) {
      if (!R.next())
        return Done(false);
      LineFields FS(R.Line);
      SleepMove Mv;
      uint64_t L = 0;
      unsigned Kind = 0;
      if (!FS.keyword(R, "s") || !FS.num(Mv.Tid) || !FS.num(L) ||
          !FS.num(Kind) || !FS.flag(Mv.Fp.Sc) || !FS.flag(Mv.Fp.Atomic) ||
          !FS.num(Mv.Ver))
        return Done(R.fail("malformed sleep record"));
      if (Kind > static_cast<unsigned>(rmc::Footprint::Kind::Free))
        return Done(R.fail("sleep footprint kind out of range"));
      Mv.Fp.L = static_cast<rmc::Loc>(L);
      Mv.Fp.K = static_cast<rmc::Footprint::Kind>(Kind);
      Pf.Sleep.push_back(Mv);
    }
    if (Pf.HasSleep && !Pf.Path.empty() &&
        Pf.SleepOrdinal >= Pf.Path.size())
      return Done(R.fail("sleep ordinal beyond prefix depth"));
    Out.Frontier.push_back(std::move(Pf));
  }

  if (!R.next())
    return Done(false);
  if (R.Line != "end snapshot")
    return Done(R.fail("expected 'end snapshot'"));
  return true;
}
