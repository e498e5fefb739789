//===-- tests/CheckpointFuzzTest.cpp - Checkpoint parser fuzzing -----------===//
//
// Seeded mutational fuzzing of the two checkpoint parsers: sim
// `snapshot v2` (sim/Checkpoint.cpp) and `compass sweep-checkpoint v1`
// (check/Checkpoint.cpp). The seed inputs are real checkpoints written by
// interrupted explorations and sweeps; each is mutated by byte flips,
// truncations, dropped, duplicated and swapped lines, and numeric fields
// replaced by huge or negative values. Every mutated input must either be
// rejected with a non-empty error, or parse to a value whose serialization
// parses again and serializes to the same text. Run under the sanitizer
// build, this also checks that no input reads out of bounds or overflows.
//
//===----------------------------------------------------------------------===//

#include "check/Checkpoint.h"
#include "check/Harness.h"
#include "check/ScenarioGen.h"
#include "sim/Checkpoint.h"
#include "sim/ParallelExplorer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace compass;
using namespace compass::sim;

namespace {

/// Applies one to three random mutations to \p Text.
std::string mutate(std::string Text, Rng &R) {
  static const char *const Digits = "0123456789";
  static const char *const Numbers[] = {
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999", "4294967296", "-1", "-0", "0"};
  for (unsigned N = 1 + R.below(3); N; --N) {
    const unsigned Op = R.below(6);
    if (Op == 0 && !Text.empty()) { // Byte flip: one bit, or a new byte.
      char &C = Text[R.below(Text.size())];
      C = static_cast<char>(R.chance(1, 2) ? C ^ (1u << R.below(8))
                                           : R.below(256));
    } else if (Op == 1) { // Truncation.
      Text.resize(R.below(Text.size() + 1));
    } else if (Op == 2) { // The number at or after a random offset.
      size_t At = Text.find_first_of(Digits, R.below(Text.size() + 1));
      if (At == std::string::npos)
        At = Text.find_first_of(Digits);
      if (At != std::string::npos)
        Text.replace(At, Text.find_first_not_of(Digits, At) - At,
                     Numbers[R.below(std::size(Numbers))]);
    } else if (Op > 2) { // Dropped, duplicated or swapped line.
      std::vector<std::string> Lines;
      std::istringstream In(Text);
      for (std::string L; std::getline(In, L);)
        Lines.push_back(L);
      if (Lines.empty())
        continue;
      const size_t I = R.below(Lines.size()), J = R.below(Lines.size());
      if (Op == 3)
        Lines.erase(Lines.begin() + I);
      else if (Op == 4)
        Lines.insert(Lines.begin() + I, Lines[J]);
      else
        std::swap(Lines[I], Lines[J]);
      Text.clear();
      for (const std::string &L : Lines)
        Text += L + "\n";
    }
  }
  return Text;
}

/// Fuzzes one parser: \p RoundTrip(In, Err, Out) parses \p In and on
/// success serializes the value into \p Out.
template <typename RoundTripT>
void fuzz(const std::vector<std::string> &Seeds, uint64_t RngSeed,
          RoundTripT RoundTrip) {
  Rng R(RngSeed);
  unsigned Accepted = 0, Rejected = 0;
  for (const std::string &Seed : Seeds) {
    std::string Err, Text, Again;
    ASSERT_TRUE(RoundTrip(Seed, Err, Text)) << "seed rejected: " << Err;
    for (unsigned I = 0; I != 3000; ++I) {
      const std::string In = mutate(Seed, R);
      Err.clear();
      if (!RoundTrip(In, Err, Text)) {
        EXPECT_FALSE(Err.empty()) << "rejected without an error:\n" << In;
        ++Rejected;
        continue;
      }
      ++Accepted;
      ASSERT_TRUE(RoundTrip(Text, Err, Again))
          << "the serialization of an accepted input does not parse: " << Err
          << "\ninput:\n" << In << "\nserialized:\n" << Text;
      ASSERT_EQ(Again, Text) << "input:\n" << In;
    }
  }
  // Both outcomes must occur for the mutations to mean anything.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

/// A snapshot of \p W interrupted halfway through.
std::string halfwaySnapshot(const Workload &W) {
  ExploreControl Ctl;
  Ctl.InterruptAtExecs = explore(W).Executions / 2;
  ExploreResult R = exploreResumable(W, Ctl);
  EXPECT_TRUE(R.Interrupted);
  return serializeSnapshot(R.Snapshot);
}

Workload scenarioWorkload(check::Lib L, uint64_t Seed, check::Mutation Mut,
                          const check::GenOptions &G) {
  check::Scenario S =
      check::generateScenario(L, check::scenarioSeed(Seed, L, 0), G);
  return check::makeWorkload(S, Mut, check::scenarioOptions(S, 200000, 2));
}

} // namespace

TEST(CheckpointFuzz, SnapshotParserRejectsOrRoundTrips) {
  // A source-set exploration with sleep records, and a violating one
  // whose summary carries a first-violation trace.
  check::GenOptions Big, Small;
  Big.MinThreads = Big.MaxThreads = 3;
  Big.MinPreemptions = Big.MaxPreemptions = 2;
  Small.MaxThreads = Small.MaxOpsPerThread = 2;
  Small.MinPreemptions = Small.MaxPreemptions = 1;
  std::vector<std::string> Seeds = {
      halfwaySnapshot(scenarioWorkload(check::Lib::MsQueue, 1,
                                       check::Mutation::None, Big)),
      halfwaySnapshot(
          scenarioWorkload(check::Lib::TreiberStack, 13,
                           check::Mutation::TreiberRelaxedPopHead, Small))};
  fuzz(Seeds, 0x5eed0001,
       [](const std::string &In, std::string &Err, std::string &Out) {
         ExplorationSnapshot S;
         if (!parseSnapshot(In, S, Err))
           return false;
         Out = serializeSnapshot(S);
         return true;
       });
}

TEST(CheckpointFuzz, SweepCheckpointParserRejectsOrRoundTrips) {
  // A cadence checkpoint with an embedded mid-scenario snapshot, and the
  // same checkpoint without it (as written at a scenario boundary).
  check::SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {check::Lib::MsQueue, check::Lib::TreiberStack};
  check::SweepCheckpoint First;
  check::SweepControl Cadence;
  Cadence.CheckpointEveryExecs = 150;
  Cadence.OnCheckpoint = [&](const check::SweepCheckpoint &C) {
    if (C.HasScenario && !First.HasScenario)
      First = C;
  };
  check::runSweepResumable(O, Cadence);
  ASSERT_TRUE(First.HasScenario) << "no cadence checkpoint mid-scenario";
  std::vector<std::string> Seeds = {check::serializeSweepCheckpoint(First)};
  First.HasScenario = false;
  First.ScenarioLinAborts = 0;
  First.Scenario = ExplorationSnapshot{};
  Seeds.push_back(check::serializeSweepCheckpoint(First));
  fuzz(Seeds, 0x5eed0002,
       [](const std::string &In, std::string &Err, std::string &Out) {
         check::SweepCheckpoint C;
         if (!check::parseSweepCheckpoint(In, C, Err))
           return false;
         Out = check::serializeSweepCheckpoint(C);
         return true;
       });
}
