//===-- tests/DecisionTreeTest.cpp - DFS frontier unit tests --------------===//
//
// Unit tests for the pure search-state half of the model checker: replay /
// extend / backtrack bookkeeping, seeded subtree enumeration, and the
// splitting invariant the parallel explorer relies on — the set of decision
// sequences enumerated by a tree equals the disjoint union of the sequences
// enumerated after any series of splits.
//
//===----------------------------------------------------------------------===//

#include "sim/DecisionTree.h"
#include "sim/Reduction.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

using namespace compass;
using namespace compass::sim;

namespace {

/// A deterministic "program" for the tree to search: given the decisions
/// taken so far, returns the arity of the next choice point, or 0 when the
/// execution ends. This stands in for Machine+Scheduler.
using Program = std::function<unsigned(const std::vector<unsigned> &)>;

/// Runs one execution of \p P against \p T.
void runOne(DecisionTree &T, const Program &P) {
  T.beginExecution();
  std::vector<unsigned> Path;
  for (;;) {
    unsigned Arity = P(Path);
    if (Arity == 0)
      break;
    Path.push_back(T.next(Arity, "t"));
  }
}

/// Enumerates every execution of \p P in tree \p T; returns the leaves in
/// visit order.
std::vector<std::vector<unsigned>> enumerate(DecisionTree T,
                                             const Program &P) {
  std::vector<std::vector<unsigned>> Leaves;
  if (T.exhausted())
    return Leaves;
  for (;;) {
    runOne(T, P);
    Leaves.push_back(T.decisions());
    if (!T.advance())
      break;
  }
  EXPECT_TRUE(T.exhausted());
  return Leaves;
}

/// Enumerates \p P while randomly splitting off subtrees, exploring the
/// donated prefixes recursively. Collects all leaves (in scrambled order).
void enumerateWithSplits(DecisionTree T, const Program &P, Rng &R,
                         std::vector<std::vector<unsigned>> &Out) {
  if (T.exhausted())
    return;
  for (;;) {
    runOne(T, P);
    Out.push_back(T.decisions());
    bool More = T.advance();
    if (!More)
      break;
    if (T.splittable() && R.chance(1, 3)) {
      for (DecisionTree::Prefix &Pre :
           T.split(static_cast<size_t>(1 + R.below(3))))
        enumerateWithSplits(DecisionTree(std::move(Pre)), P, R, Out);
    }
  }
}

/// Uniform tree: \p Arities[d] alternatives at depth d.
Program uniform(std::vector<unsigned> Arities) {
  return [Arities = std::move(Arities)](const std::vector<unsigned> &Path) {
    return Path.size() < Arities.size() ? Arities[Path.size()] : 0u;
  };
}

/// A lopsided program: the first decision (3 alternatives) selects how deep
/// the rest of the execution is, so subtree sizes differ per branch.
unsigned lopsided(const std::vector<unsigned> &Path) {
  if (Path.empty())
    return 3;
  unsigned Depth = 1 + Path[0]; // branch b gets b+1 further decisions
  if (Path.size() <= Depth)
    return 2;
  return 0;
}

} // namespace

TEST(DecisionTreeTest, EnumeratesUniformTreeInLexOrder) {
  auto Leaves = enumerate(DecisionTree(), uniform({2, 3, 2}));
  ASSERT_EQ(Leaves.size(), 12u);
  EXPECT_EQ(Leaves.front(), (std::vector<unsigned>{0, 0, 0}));
  EXPECT_EQ(Leaves.back(), (std::vector<unsigned>{1, 2, 1}));
  EXPECT_TRUE(std::is_sorted(Leaves.begin(), Leaves.end()));
  EXPECT_EQ(std::set<std::vector<unsigned>>(Leaves.begin(), Leaves.end())
                .size(),
            12u);
}

TEST(DecisionTreeTest, EnumeratesLopsidedTree) {
  // Branch 0: 2^1 leaves, branch 1: 2^2, branch 2: 2^3 -> 14 total.
  auto Leaves = enumerate(DecisionTree(), lopsided);
  EXPECT_EQ(Leaves.size(), 14u);
  EXPECT_TRUE(std::is_sorted(Leaves.begin(), Leaves.end()));
}

TEST(DecisionTreeTest, ReplayCursorTracksRecordedPrefix) {
  DecisionTree T;
  runOne(T, uniform({2, 2}));
  EXPECT_EQ(T.depth(), 2u);
  EXPECT_EQ(T.frontierSize(), 2u); // one untried alternative per level
  ASSERT_TRUE(T.advance());
  // After backtracking, the retained prefix replays and the last decision
  // advanced to its sibling.
  T.beginExecution();
  EXPECT_TRUE(T.replaying());
  EXPECT_EQ(T.next(2, "t"), 0u);
  EXPECT_EQ(T.next(2, "t"), 1u);
  EXPECT_FALSE(T.replaying());
}

TEST(DecisionTreeTest, AdvanceDiscardsExhaustedSuffix) {
  DecisionTree T;
  runOne(T, uniform({2, 1, 2}));
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 0, 1}));
  ASSERT_TRUE(T.advance());
  // Depth-2 and depth-1 nodes exhausted; the root advances and the suffix
  // is discarded.
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{1}));
  runOne(T, uniform({2, 1, 2}));
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{1, 0, 1}));
  runOne(T, uniform({2, 1, 2}));
  EXPECT_FALSE(T.advance());
  EXPECT_TRUE(T.exhausted());
}

TEST(DecisionTreeTest, RepeatedAdvancesKeepCursorForSplitAndFrontier) {
  // The explorer skips covered siblings by advancing again without an
  // execution in between; the cursor must follow the path each time, so
  // the next advance() and split()/frontierPrefixes() see a tree between
  // executions (their asserts check this in builds with assertions on).
  auto P = uniform({4, 2, 2});
  DecisionTree T;
  runOne(T, P);
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 0, 1}));
  EXPECT_EQ(T.position(), T.depth());
  ASSERT_TRUE(T.advance()); // skip {0,0,1}
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(T.position(), T.depth());
  ASSERT_TRUE(T.advance()); // skip {0,1,*}
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{1}));
  EXPECT_EQ(T.position(), T.depth());
  EXPECT_EQ(T.frontierSize(), 2u); // root alternatives 2 and 3

  // One pinned prefix per open root alternative plus the current path.
  std::vector<DecisionTree::Prefix> Frontier = T.frontierPrefixes();
  ASSERT_EQ(Frontier.size(), 3u);
  EXPECT_EQ(Frontier[0].Path.back().Chosen, 2u);
  EXPECT_EQ(Frontier[1].Path.back().Chosen, 3u);
  EXPECT_EQ(Frontier[2].Path.size(), 1u);
  EXPECT_EQ(Frontier[2].Path.back().Chosen, 1u);

  std::vector<DecisionTree::Prefix> Donated = T.split(1);
  ASSERT_EQ(Donated.size(), 1u);
  EXPECT_EQ(Donated[0].Path.back().Chosen, 3u);
  EXPECT_EQ(T.frontierSize(), 1u);

  // The donor and the donation together still cover root alternatives
  // 1..3 exactly: 4 leaves each.
  std::vector<std::vector<unsigned>> Leaves = enumerate(T, P);
  std::vector<std::vector<unsigned>> Don =
      enumerate(DecisionTree(std::move(Donated[0])), P);
  EXPECT_EQ(Leaves.size(), 8u);
  EXPECT_EQ(Leaves.front(), (std::vector<unsigned>{1, 0, 0}));
  EXPECT_EQ(Leaves.back(), (std::vector<unsigned>{2, 1, 1}));
  EXPECT_EQ(Don.size(), 4u);
  EXPECT_EQ(Don.front(), (std::vector<unsigned>{3, 0, 0}));
}

TEST(DecisionTreeTest, FreshNodeStartsAtFirstLiveAlternative) {
  // A fresh node created past covered alternatives enumerates only
  // [First, Limit); replay returns the recorded pick regardless of First.
  DecisionTree T;
  T.beginExecution();
  EXPECT_EQ(T.next(4, 4, "sched", 2), 2u);
  EXPECT_EQ(T.next(2, "t"), 0u);
  EXPECT_EQ(T.frontierSize(), 2u); // alternative 3 at the root, 1 below
  std::vector<std::vector<unsigned>> Seen = {T.decisions()};
  while (T.advance()) {
    T.beginExecution();
    unsigned A = T.next(4, 4, "sched", 2);
    unsigned B = T.next(2, "t");
    Seen.push_back({A, B});
  }
  EXPECT_EQ(Seen, (std::vector<std::vector<unsigned>>{
                      {2, 0}, {2, 1}, {3, 0}, {3, 1}}));
}

TEST(DecisionTreeTest, SeededTreeEnumeratesExactlyItsSubtree) {
  auto P = uniform({3, 2, 2});
  // Build the seed for subtree {1, *, *} the way split() would: pinned
  // decisions.
  DecisionTree::Prefix Seed;
  Seed.Path = {{1, 2, 3, "t"}};
  auto Leaves = enumerate(DecisionTree(std::move(Seed)), P);
  ASSERT_EQ(Leaves.size(), 4u);
  for (const auto &L : Leaves) {
    ASSERT_EQ(L.size(), 3u);
    EXPECT_EQ(L[0], 1u);
  }
  EXPECT_EQ(Leaves.front(), (std::vector<unsigned>{1, 0, 0}));
  EXPECT_EQ(Leaves.back(), (std::vector<unsigned>{1, 1, 1}));
}

TEST(DecisionTreeTest, SplitDonatesShallowestAlternativesAndKeepsPath) {
  DecisionTree T;
  runOne(T, uniform({3, 2}));
  ASSERT_TRUE(T.advance()); // path {0,1}
  ASSERT_TRUE(T.splittable());
  auto Donated = T.split(8);
  // Shallowest open node is the root (alternatives 1 and 2 untried).
  ASSERT_EQ(Donated.size(), 2u);
  EXPECT_EQ(Donated[0].Path.back().Chosen, 1u);
  EXPECT_EQ(Donated[1].Path.back().Chosen, 2u);
  for (const auto &Pre : Donated) {
    EXPECT_EQ(Pre.Path.size(), 1u);
    EXPECT_EQ(Pre.Path.back().Limit, Pre.Path.back().Chosen + 1);
    EXPECT_EQ(Pre.Path.back().Count, 3u);
  }
  // The donor keeps its current path and no longer owns the donated
  // alternatives.
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 1}));
  EXPECT_FALSE(T.splittable());
  // Donor finishes just its remaining branch.
  runOne(T, uniform({3, 2}));
  EXPECT_FALSE(T.advance());
}

TEST(DecisionTreeTest, SplitRespectsDonationCap) {
  DecisionTree T;
  runOne(T, uniform({4}));
  ASSERT_TRUE(T.advance()); // path {1}; untried {2, 3}
  auto Donated = T.split(1);
  ASSERT_EQ(Donated.size(), 1u);
  // The highest alternative goes first so the donor's range stays
  // contiguous.
  EXPECT_EQ(Donated[0].Path.back().Chosen, 3u);
  EXPECT_TRUE(T.splittable()); // alternative 2 still owned by the donor
}

TEST(DecisionTreeTest, SplittingPartitionsTheLeafSet) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    std::vector<std::vector<unsigned>> Split;
    enumerateWithSplits(DecisionTree(), lopsided, R, Split);
    auto Serial = enumerate(DecisionTree(), lopsided);
    ASSERT_EQ(Split.size(), Serial.size()) << "seed " << Seed;
    std::sort(Split.begin(), Split.end());
    // Serial DFS enumerates in sorted (lexicographic) order already.
    EXPECT_EQ(Split, Serial) << "seed " << Seed;
  }
}

TEST(DecisionTreeTest, SplittingPartitionsUniformTreeLeafSet) {
  auto P = uniform({2, 3, 2, 2});
  auto Serial = enumerate(DecisionTree(), P);
  ASSERT_EQ(Serial.size(), 24u);
  for (uint64_t Seed = 11; Seed <= 14; ++Seed) {
    Rng R(Seed);
    std::vector<std::vector<unsigned>> Split;
    enumerateWithSplits(DecisionTree(), P, R, Split);
    std::sort(Split.begin(), Split.end());
    EXPECT_EQ(Split, Serial) << "seed " << Seed;
  }
}

namespace {

/// A write footprint for the prefix-annotation tests below.
rmc::Footprint writeFp(rmc::Loc L) {
  rmc::Footprint F;
  F.L = L;
  F.K = rmc::Footprint::Kind::Write;
  return F;
}

/// The scheduler's two reduction hooks at a real sched choice point.
Reduction::Verdict schedChoice(Reduction &Red, const std::vector<unsigned> &En,
                               const std::vector<rmc::Footprint> &Fps,
                               const std::vector<uint32_t> &Hist,
                               unsigned Pick) {
  Red.onSchedPoint(En, Fps, Hist);
  return Red.commitPick(Pick);
}

/// Drives one donor execution of a two-level, arity-3, `sched`-tagged
/// program against \p T while feeding \p Red the hooks exactly as the
/// scheduler would: choice, then the chosen thread's step.
void runSchedExecution(DecisionTree &T, Reduction &Red,
                       const std::vector<unsigned> &En,
                       const std::vector<rmc::Footprint> &Fps) {
  const std::vector<uint32_t> Hist(En.size(), 0);
  T.beginExecution();
  Red.beginExecution();
  for (int Level = 0; Level != 2; ++Level) {
    unsigned Pick = T.next(3, "sched");
    ASSERT_EQ(schedChoice(Red, En, Fps, Hist, Pick),
              Reduction::Verdict::Run);
    Red.onStepExecuted(En[Pick], Fps[Pick]);
  }
}

} // namespace

TEST(DecisionTreeTest, SplitPrefixCarriesSleepSnapshotAndReseeds) {
  // Three threads writing the same cell: pairwise *dependent* moves, so
  // sleeps put in place at a choice point survive the subsequent step and
  // the snapshot is non-trivial.
  std::vector<unsigned> En = {0, 1, 2};
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};

  DecisionTree T;
  Reduction Red;
  runSchedExecution(T, Red, En, Fps);
  ASSERT_TRUE(T.advance()); // path {0,1}; root alternatives 1,2 open
  auto Donated = T.split(8);
  ASSERT_EQ(Donated.size(), 2u);
  for (DecisionTree::Prefix &P : Donated)
    Red.annotate(P);

  // Donated prefix {1}: alternative 0 was fully explored before it, so it
  // sleeps; prefix {2} additionally has alternative 1 asleep.
  ASSERT_TRUE(Donated[0].HasSleep);
  EXPECT_EQ(Donated[0].SleepOrdinal, 0u);
  EXPECT_EQ(Donated[0].Sleep, (std::vector<SleepMove>{{0, Fps[0]}}));
  ASSERT_TRUE(Donated[1].HasSleep);
  EXPECT_EQ(Donated[1].SleepOrdinal, 0u);
  EXPECT_EQ(Donated[1].Sleep,
            (std::vector<SleepMove>{{0, Fps[0]}, {1, Fps[1]}}));

  // Round-trip: a recipient re-seeds its tree from the donated prefix and
  // recomputes the sleep state while replaying; the recomputation must
  // agree with the carried snapshot (validated inside commitPick) and
  // leave the recipient with exactly the donor's sleep set.
  for (size_t I = 0; I != Donated.size(); ++I) {
    std::vector<SleepMove> Snapshot = Donated[I].Sleep;
    size_t Ordinal = Donated[I].SleepOrdinal;
    unsigned Chosen = Donated[I].Path.back().Chosen;

    Reduction R2;
    R2.setSeed(Snapshot, Ordinal);
    DecisionTree T2(std::move(Donated[I]));
    T2.beginExecution();
    R2.beginExecution();
    EXPECT_TRUE(T2.replaying());
    unsigned Pick = T2.next(3, "sched");
    EXPECT_EQ(Pick, Chosen);
    // The replayed pick is never itself asleep, and the recomputed state
    // matches the donor's snapshot bit for bit.
    EXPECT_EQ(schedChoice(R2, En, Fps, std::vector<uint32_t>(En.size(), 0),
                          Pick),
              Reduction::Verdict::Run);
    EXPECT_EQ(R2.current(), Snapshot);
  }
}

TEST(DecisionTreeTest, AnnotateSkipsPrefixesNotEndingInSchedDecisions) {
  std::vector<unsigned> En = {0, 1, 2};
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};

  Reduction Red;
  Red.beginExecution();
  ASSERT_EQ(schedChoice(Red, En, Fps, {0, 0, 0}, 2),
            Reduction::Verdict::Run); // sleeps {0, 1}

  // A prefix ending in a read-from decision must not be annotated: pruning
  // is only sound at thread-choice points.
  DecisionTree::Prefix P;
  P.Path = {{2, 3, 3, "sched"}, {1, 2, 2, "rf"}};
  P.HasSleep = true; // Stale value; annotate() must clear it.
  Red.annotate(P);
  EXPECT_FALSE(P.HasSleep);
  EXPECT_TRUE(P.Sleep.empty());

  // An empty prefix (root donation) is likewise left unannotated.
  DecisionTree::Prefix Root;
  Root.HasSleep = true;
  Red.annotate(Root);
  EXPECT_FALSE(Root.HasSleep);
}

#if GTEST_HAS_DEATH_TEST
TEST(DecisionTreeDeathTest, DivergentSleepSeedIsFatal) {
  // A recipient whose recomputed sleep state disagrees with the donated
  // snapshot must abort: silent divergence would make reduced exploration
  // depend on the work distribution.
  std::vector<unsigned> En = {0, 1, 2};
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};
  Reduction R;
  R.setSeed({{1, Fps[1]}}, 0); // Donor claims only thread 1 sleeps...
  R.beginExecution();
  // ...but replaying pick 2 recomputes {0, 1}.
  EXPECT_DEATH(schedChoice(R, En, Fps, {0, 0, 0}, 2), "diverged");
}

TEST(DecisionTreeDeathTest, ArityChangeDuringReplayIsFatal) {
  DecisionTree T;
  runOne(T, uniform({2, 2}));
  ASSERT_TRUE(T.advance());
  T.beginExecution();
  EXPECT_DEATH(T.next(3, "t"), "nondeterministic replay");
}
#endif
