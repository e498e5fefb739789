//===-- tests/ClientTest.cpp - Client verifications (E1, E3) ---------------===//
//
// The paper's client proofs as exhaustive checks:
//
//  * Message Passing (Figures 1 and 3): with a release/acquire flag, the
//    right thread's dequeue never returns empty, on every queue
//    implementation — and the ablation with a relaxed flag *does* exhibit
//    empty dequeues, demonstrating that the client's external
//    synchronization is load-bearing.
//
//  * SPSC (Section 3.2): the consumer's array always equals the
//    producer's (FIFO end-to-end).
//
//===----------------------------------------------------------------------===//

#include "clients/MpClient.h"
#include "clients/Spsc.h"
#include "lib/HwQueue.h"
#include "lib/Locked.h"
#include "lib/MsQueue.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

using namespace compass;
using namespace compass::clients;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;

namespace {

enum class QueueKind { Ms, Hw, Locked };

const char *queueKindName(QueueKind K) {
  switch (K) {
  case QueueKind::Ms:
    return "ms";
  case QueueKind::Hw:
    return "hw";
  case QueueKind::Locked:
    return "locked";
  }
  return "?";
}

std::unique_ptr<lib::SimQueue> makeQueue(QueueKind K, Machine &M,
                                         spec::SpecMonitor &Mon) {
  switch (K) {
  case QueueKind::Ms:
    return std::make_unique<lib::MsQueue>(M, Mon, "q");
  case QueueKind::Hw:
    return std::make_unique<lib::HwQueue>(M, Mon, "q", 8);
  case QueueKind::Locked:
    return std::make_unique<lib::LockedQueue>(M, Mon, "q", 8);
  }
  return nullptr;
}

struct MpStats {
  uint64_t Checked = 0;
  uint64_t RightEmpty = 0;
  uint64_t GraphViolations = 0;
  std::set<Value> RightValues;
  std::string FirstViolation;
};

MpStats exploreMp(QueueKind K, const MpConfig &Cfg, unsigned Preemptions,
                  uint64_t MaxExecutions = 300'000) {
  Explorer::Options Opts;
  Opts.PreemptionBound = Preemptions;
  Opts.MaxExecutions = MaxExecutions;

  MpStats Stats;
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::SimQueue> Q;
  MpOutcome Out;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = makeQueue(K, M, *Mon);
        Out = MpOutcome();
        setupMpClient(M, S, *Q, Cfg, Out);
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        EXPECT_NE(R, Scheduler::RunResult::Deadlock);
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        if (Out.Right == EmptyVal)
          ++Stats.RightEmpty;
        else
          Stats.RightValues.insert(Out.Right);
        auto CR = spec::checkQueueConsistent(Mon->graph(), Q->objId());
        if (!CR.ok()) {
          ++Stats.GraphViolations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = CR.str() + Mon->graph().str();
        }
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

class MpClientTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(MpClientTest, RightDequeueNeverEmpty) {
  MpConfig Cfg; // Release store / acquire spin: the verified client.
  auto Stats = exploreMp(GetParam(), Cfg, /*Preemptions=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.RightEmpty, 0u)
      << "Figure 1's guarantee: the right thread cannot see empty";
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  // And it only ever receives the two enqueued values.
  for (Value V : Stats.RightValues)
    EXPECT_TRUE(V == 41 || V == 42) << V;
}

TEST_P(MpClientTest, RelaxedFlagAblationBreaksTheGuarantee) {
  MpConfig Cfg;
  Cfg.FlagStore = MemOrder::Relaxed;
  Cfg.FlagRead = MemOrder::Relaxed;
  auto Stats = exploreMp(GetParam(), Cfg, /*Preemptions=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  if (GetParam() == QueueKind::Locked) {
    // The locked queue synchronizes internally so strongly that even a
    // relaxed flag cannot surface an empty dequeue on the right: the
    // right dequeue acquires the lock and sees everything.
    EXPECT_EQ(Stats.RightEmpty, 0u);
  } else {
    EXPECT_GT(Stats.RightEmpty, 0u)
        << "without the release/acquire flag the guarantee must fail";
  }
  // The *library* stays consistent — the client just asked a weaker
  // question (the empty dequeue knows nothing, so QUEUE-EMPDEQ holds).
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
}

INSTANTIATE_TEST_SUITE_P(AllQueues, MpClientTest,
                         ::testing::Values(QueueKind::Ms, QueueKind::Hw,
                                           QueueKind::Locked),
                         [](const auto &Info) {
                           return queueKindName(Info.param);
                         });

TEST(SpscClientTest, ConsumerSeesProducerOrder) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 3;
  Opts.MaxExecutions = 300'000;

  std::vector<Value> Items = {11, 22, 33};
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::MsQueue> Q;
  SpscOutcome Out;
  uint64_t Checked = 0;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = std::make_unique<lib::MsQueue>(M, *Mon, "q");
        Out = SpscOutcome();
        setupSpsc(M, S, *Q, Items, Out);
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        EXPECT_NE(R, Scheduler::RunResult::Deadlock)
            << "blocking consumer must always be served";
        if (R != Scheduler::RunResult::Done)
          return;
        ++Checked;
        EXPECT_EQ(Out.Consumed, Items)
            << "Section 3.2: the consumer's array equals the producer's";
      });
  EXPECT_GT(Checked, 0u);
  EXPECT_EQ(Sum.Races, 0u);
}
