//===-- perfbench/Trace.cpp - In-memory spans at the public API -----------===//

#include "Trace.h"

#include <chrono>
#include <cstdio>

using namespace compass;
using namespace perfbench;

uint64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::begin(const char *Name, uint32_t Parent, uint32_t Input) {
  std::lock_guard<std::mutex> L(Mu);
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Input = Input;
  S.Name = Name;
  S.Begin = S.End = nowNs();
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void Tracer::end(uint32_t Id) {
  uint64_t Now = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id - 1].End = Now;
}

namespace {

/// Shared by a wrapped body's closures; the last copy to go closes the
/// body's span.
struct BodyLife {
  Tracer &T;
  std::shared_ptr<BodyAcc> Acc;
  BodyLife(Tracer &T, std::shared_ptr<BodyAcc> Acc)
      : T(T), Acc(std::move(Acc)) {}
  ~BodyLife() { T.end(Acc->Span); }
};

inline void charge(ClosureAgg &A, uint64_t Begin) {
  A.Ns += nowNs() - Begin;
  ++A.Calls;
}

} // namespace

sim::Workload Tracer::wrap(const sim::Workload &W, uint32_t ExploreSpan,
                           uint32_t Input) {
  return sim::Workload(W.options(), [this, W, ExploreSpan, Input]() {
    sim::Workload::Body In = W.makeBody();
    auto Acc = std::make_shared<BodyAcc>();
    Acc->Span = begin("sim.body", ExploreSpan, Input);
    {
      std::lock_guard<std::mutex> L(Mu);
      Spans[Acc->Span - 1].Body = Acc;
    }
    auto Life = std::make_shared<BodyLife>(*this, Acc);

    sim::Workload::Body Out;
    Out.CowSafe = In.CowSafe;
    Out.CowSkipFinished = In.CowSkipFinished;
    Out.Setup = [Life, F = std::move(In.Setup)](rmc::Machine &M,
                                                 sim::Scheduler &S) {
      uint64_t T0 = nowNs();
      F(M, S);
      charge(Life->Acc->Setup, T0);
    };
    if (In.Check)
      Out.Check = [Life, F = std::move(In.Check)](
                      rmc::Machine &M, sim::Scheduler &S,
                      sim::Scheduler::RunResult R) {
        uint64_t T0 = nowNs();
        bool Ok = F(M, S, R);
        charge(Life->Acc->Check, T0);
        return Ok;
      };
    if (In.CowSave)
      Out.CowSave = [Life, F = std::move(In.CowSave)](
                        std::shared_ptr<void> &Slot) {
        uint64_t T0 = nowNs();
        F(Slot);
        charge(Life->Acc->CowSave, T0);
      };
    if (In.CowRestore)
      Out.CowRestore = [Life, F = std::move(In.CowRestore)](
                           const std::shared_ptr<void> &Slot) {
        uint64_t T0 = nowNs();
        F(Slot);
        charge(Life->Acc->CowRestore, T0);
      };
    return Out;
  });
}

bool Tracer::writeJsonl(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "{\"id\":%u,\"parent\":%u,\"input\":%u,\"name\":\"%s\","
                 "\"begin_ns\":%llu,\"end_ns\":%llu",
                 S.Id, S.Parent, S.Input, S.Name,
                 static_cast<unsigned long long>(S.Begin),
                 static_cast<unsigned long long>(S.End));
    if (S.Body) {
      auto Agg = [F](const char *Name, const ClosureAgg &A) {
        std::fprintf(F, ",\"%s_ns\":%llu,\"%s_calls\":%llu", Name,
                     static_cast<unsigned long long>(A.Ns), Name,
                     static_cast<unsigned long long>(A.Calls));
      };
      Agg("setup", S.Body->Setup);
      Agg("check", S.Body->Check);
      Agg("cow_save", S.Body->CowSave);
      Agg("cow_restore", S.Body->CowRestore);
    }
    std::fputs("}\n", F);
  }
  return std::fclose(F) == 0;
}
