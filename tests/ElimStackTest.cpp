//===-- tests/ElimStackTest.cpp - Compositional verification (Section 4) ---===//
//
// Experiment E6's substance: the elimination stack's event graph is
// *derived* from its base stack's and exchanger's graphs via the Section
// 4.1 simulation relation (spec/Composition.h), and StackConsistent is
// checked on the derived graph in every explored execution — including
// ones where eliminations actually happen.
//
//===----------------------------------------------------------------------===//

#include "lib/ElimStack.h"
#include "sim/Workload.h"
#include "spec/Composition.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"

#include <gtest/gtest.h>

#include <memory>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;
using compass::graph::EmptyVal;
using compass::graph::EventGraph;
using compass::graph::FailRaceVal;
using compass::graph::OpKind;

namespace {

constexpr unsigned EsObjId = 100; // Fresh object id for derived graphs.

Task<void> esPusher(Env &E, lib::ElimStack &S, std::vector<Value> Vs,
                    unsigned Rounds, unsigned *Failed) {
  for (Value V : Vs) {
    auto T = S.push(E, V, Rounds);
    bool Ok = co_await T;
    if (!Ok)
      ++*Failed;
  }
}

Task<void> esPopper(Env &E, lib::ElimStack &S, unsigned N, unsigned Rounds,
                    std::vector<Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = S.pop(E, Rounds);
    Out->push_back(co_await T);
  }
}

struct ElimStats {
  uint64_t Checked = 0;
  uint64_t Violations = 0;
  uint64_t NoLinearization = 0;
  uint64_t Eliminations = 0;
  std::string FirstViolation;
};

ElimStats exploreElimStack(std::vector<std::vector<Value>> Pushes,
                           std::vector<unsigned> Pops, unsigned Rounds,
                           unsigned PreemptionBound,
                           uint64_t MaxExecutions = 300'000) {
  Explorer::Options Opts;
  Opts.PreemptionBound = PreemptionBound;
  Opts.MaxExecutions = MaxExecutions;

  ElimStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::ElimStack> St;
  std::vector<std::vector<Value>> Got;
  unsigned PushFails = 0;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        St = std::make_unique<lib::ElimStack>(M, *Mon, "es");
        Got.assign(Pops.size(), {});
        PushFails = 0;
        for (auto &Vs : Pushes) {
          Env &E = S.newThread();
          S.start(E, esPusher(E, *St, Vs, Rounds, &PushFails));
        }
        for (size_t I = 0; I != Pops.size(); ++I) {
          Env &E = S.newThread();
          S.start(E, esPopper(E, *St, Pops[I], Rounds, &Got[I]));
        }
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        EventGraph Es = buildElimStackGraph(
            Mon->graph(), St->baseObjId(), St->exchangerObjId(), EsObjId);
        // Count eliminated pairs: derived pushes whose id belongs to an
        // exchange event in the source graph.
        for (graph::EventId Id : Es.objectEvents(EsObjId))
          if (Es.event(Id).Kind == OpKind::Push &&
              Mon->graph().isCommitted(Id) &&
              Mon->graph().event(Id).Kind == OpKind::Exchange)
            ++Stats.Eliminations;
        auto CR = checkStackConsistent(Es, EsObjId);
        if (!CR.ok()) {
          ++Stats.Violations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation =
                CR.str() + "derived:\n" + Es.str() + "source:\n" +
                Mon->graph().str();
        }
        if (!findLinearization(Es, EsObjId, SeqSpec::Stack).Found) {
          ++Stats.NoLinearization;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = "no linearization:\n" + Es.str();
        }
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

TEST(ElimStackTest, SequentialPushPopConsistent) {
  auto Stats = exploreElimStack({{1, 2}}, {}, /*Rounds=*/2, 0);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
}

TEST(ElimStackTest, PushPopPairConsistent) {
  auto Stats = exploreElimStack({{1}}, {1}, /*Rounds=*/2,
                                /*PreemptionBound=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
}

TEST(ElimStackTest, ContendedWorkloadEliminatesAndStaysConsistent) {
  // One pusher thread (two pushes) and two popper threads: contention on
  // the base stack's head drives operations into the exchanger, where a
  // pusher and a popper can eliminate.
  auto Stats = exploreElimStack({{1, 2}}, {1, 1}, /*Rounds=*/3,
                                /*PreemptionBound=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
  EXPECT_GT(Stats.Eliminations, 0u)
      << "elimination through the exchanger must be reachable";
}
