//===-- tests/ExchangerTest.cpp - Exchanger vs. its spec (Section 4.2) -----===//
//
// Experiment E5's substance: every explored execution of the exchanger is
// checked against ExchangerConsistent — matched pairs carry crossed
// values, have symmetric so edges, and commit atomically (adjacent commit
// indices with the helper observing the helpee). Also checks the
// resource-transfer client: non-atomic payload handover through a
// successful exchange is race-free in both directions.
//
//===----------------------------------------------------------------------===//

#include "clients/ResourceExchange.h"
#include "sim/Workload.h"
#include "lib/Exchanger.h"
#include "spec/Consistency.h"

#include <gtest/gtest.h>

#include <memory>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;
using compass::graph::BottomVal;

namespace {

Task<void> exchangeOnce(Env &E, lib::Exchanger &X, Value V,
                        unsigned Attempts, Value *Out) {
  auto T1 = X.exchange(E, V, Attempts);
  *Out = co_await T1;
}

struct ExchangeStats {
  uint64_t Checked = 0;
  uint64_t Violations = 0;
  uint64_t Matches = 0;
  uint64_t AllFailed = 0;
  std::string FirstViolation;
};

ExchangeStats exploreExchanger(std::vector<Value> Values, unsigned Attempts,
                               unsigned PreemptionBound) {
  Explorer::Options Opts;
  Opts.PreemptionBound = PreemptionBound;
  Opts.MaxExecutions = 400'000;

  ExchangeStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::Exchanger> X;
  std::vector<Value> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        X = std::make_unique<lib::Exchanger>(M, *Mon, "x");
        Got.assign(Values.size(), 0);
        for (size_t I = 0; I != Values.size(); ++I) {
          Env &E = S.newThread();
          S.start(E, exchangeOnce(E, *X, Values[I], Attempts, &Got[I]));
        }
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        auto CR = checkExchangerConsistent(Mon->graph(), X->objId());
        if (!CR.ok()) {
          ++Stats.Violations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = CR.str() + Mon->graph().str();
        }
        // Cross-check the callers' return values against the graph.
        unsigned Successes = 0;
        for (size_t I = 0; I != Values.size(); ++I)
          if (Got[I] != BottomVal) {
            ++Successes;
            // Some other participant must have received our value.
            bool Crossed = false;
            for (size_t J = 0; J != Values.size(); ++J)
              Crossed |= J != I && Got[J] == Values[I] &&
                         Got[I] == Values[J];
            EXPECT_TRUE(Crossed) << "one-sided exchange observed";
          }
        EXPECT_EQ(Successes % 2, 0u) << "odd number of successes";
        if (Successes > 0)
          ++Stats.Matches;
        else
          ++Stats.AllFailed;
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

TEST(ExchangerTest, SingleThreadAlwaysFails) {
  auto Stats = exploreExchanger({5}, /*Attempts=*/2, ~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.Matches, 0u);
  EXPECT_GT(Stats.AllFailed, 0u);
}

TEST(ExchangerTest, TwoThreadsConsistentAndSometimesMatch) {
  auto Stats = exploreExchanger({5, 6}, /*Attempts=*/2, ~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
  EXPECT_GT(Stats.Matches, 0u) << "matching must be reachable";
  EXPECT_GT(Stats.AllFailed, 0u) << "missing each other must be reachable";
}

TEST(ExchangerTest, ThreeThreadsAtMostOnePair) {
  auto Stats = exploreExchanger({5, 6, 7}, /*Attempts=*/1,
                                /*PreemptionBound=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Violations, 0u) << Stats.FirstViolation;
  EXPECT_GT(Stats.Matches, 0u);
}

TEST(ResourceExchangeTest, PayloadHandoverIsRaceFree) {
  Explorer::Options Opts;
  // A match needs a single preemption (install, switch, match); bound 3
  // keeps the exploration focused while covering extra contention.
  Opts.PreemptionBound = 3;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::Exchanger> X;
  clients::ResourceExchangeOutcome Out;
  uint64_t Checked = 0, Successes = 0;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        X = std::make_unique<lib::Exchanger>(M, *Mon, "x");
        Out = clients::ResourceExchangeOutcome();
        clients::setupResourceExchange(M, S, *X, /*Rounds=*/2, Out);
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        // The whole point: no execution may race on the payload cells.
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Checked;
        EXPECT_EQ(Out.Succeeded[0], Out.Succeeded[1]);
        if (Out.Succeeded[0]) {
          ++Successes;
          // Thread ids are 0 and 1; payloads are 100 + tid.
          EXPECT_EQ(Out.Received[0], 101u);
          EXPECT_EQ(Out.Received[1], 100u);
        }
      });
  EXPECT_EQ(Sum.Races, 0u);
  EXPECT_GT(Checked, 0u);
  EXPECT_GT(Successes, 0u) << "successful handover must be reachable";
}
