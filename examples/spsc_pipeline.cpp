//===-- examples/spsc_pipeline.cpp - Section 3.2's SPSC client ------------===//
//
// The single-producer single-consumer pipeline of Section 3.2, both ways:
//
//  * model-checked: every execution of the simulated pipeline moves the
//    producer's array to the consumer unchanged (FIFO end-to-end);
//  * natively: the same pipeline on std::atomic moving a larger batch.
//
// Build & run:  ./build/examples/spsc_pipeline
//
//===----------------------------------------------------------------------===//

#include "clients/Spsc.h"
#include "native/MsQueue.h"
#include "sim/Workload.h"

#include <cstdio>
#include <thread>

using namespace compass;

namespace {

bool verifiedPipeline() {
  std::printf("== model-checked SPSC pipeline (3 items, all executions) "
              "==\n");
  sim::Explorer::Options Opts;
  Opts.PreemptionBound = 3;
  Opts.MaxExecutions = 200'000;

  std::vector<rmc::Value> Items = {7, 8, 9};
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::MsQueue> Q;
  clients::SpscOutcome Out;
  uint64_t Violations = 0;

  auto Sum = sim::explore(
      Opts,
      [&](rmc::Machine &M, sim::Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = std::make_unique<lib::MsQueue>(M, *Mon, "q");
        Out = clients::SpscOutcome();
        clients::setupSpsc(M, S, *Q, Items, Out);
      },
      [&](rmc::Machine &, sim::Scheduler &, sim::Scheduler::RunResult R) {
        if (R == sim::Scheduler::RunResult::Done && Out.Consumed != Items)
          ++Violations;
      });
  std::printf("executions=%llu order-violations=%llu\n\n",
              (unsigned long long)Sum.Executions,
              (unsigned long long)Violations);
  return Violations == 0;
}

bool nativePipeline() {
  std::printf("== native SPSC pipeline (100000 items) ==\n");
  native::MsQueue<uint64_t> Q;
  constexpr uint64_t N = 100'000;
  std::vector<uint64_t> Received;
  Received.reserve(N);

  std::thread Producer([&] {
    for (uint64_t I = 1; I <= N; ++I)
      Q.enqueue(I);
  });
  std::thread Consumer([&] {
    while (Received.size() < N)
      if (auto V = Q.dequeue())
        Received.push_back(*V);
  });
  Producer.join();
  Consumer.join();

  bool InOrder = true;
  for (uint64_t I = 0; I != N; ++I)
    InOrder &= Received[I] == I + 1;
  std::printf("moved %llu items, order preserved: %s\n\n",
              (unsigned long long)N, InOrder ? "yes" : "NO");
  return InOrder;
}

} // namespace

int main() {
  bool Ok = verifiedPipeline();
  Ok &= nativePipeline();
  std::printf("Section 3.2's claim holds in both worlds: %s\n",
              Ok ? "a_c == a_p" : "BROKEN");
  return Ok ? 0 : 1;
}
