//===-- bench/bench_simulator.cpp - Experiment P4 (framework costs) --------===//
//
// Microbenchmarks of the verification framework itself — the analog of
// reporting proof-checking effort: raw view-machine operation throughput
// (with the logical-view piggyback that realizes the paper's SeenX ghost
// state), end-to-end model-checking throughput (executions/second of
// a two-thread Michael-Scott workload, including event-graph recording
// and consistency checking), and — since the explorer is the framework's
// performance ceiling — a parallel-scaling table over 1/2/4 workers for
// the litmus and MS-queue workloads. Every exploration row is the median
// of repeated runs spread over the whole bench (bench::RowTimer). Results
// are also dumped to BENCH_simulator.json so the perf trajectory is
// tracked across PRs.
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "check/Harness.h"
#include "check/ScenarioGen.h"
#include "lib/MsQueue.h"
#include "sim/ParallelExplorer.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <thread>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

void bmMachineRelAcq(benchmark::State &State) {
  FirstChoice C;
  Machine M(C);
  unsigned T0 = M.addThread(), T1 = M.addThread();
  Loc F = M.alloc("f");
  // One release write + one acquire read per iteration; history grows, so
  // re-create periodically to keep the working set bounded.
  uint64_t I = 0;
  Machine *Mp = &M;
  std::unique_ptr<Machine> Fresh;
  for (auto _ : State) {
    if (++I % 4096 == 0) {
      Fresh = std::make_unique<Machine>(C);
      T0 = Fresh->addThread();
      T1 = Fresh->addThread();
      F = Fresh->alloc("f");
      Mp = Fresh.get();
    }
    Mp->store(T0, F, I, MemOrder::Release);
    benchmark::DoNotOptimize(Mp->load(T1, F, MemOrder::Acquire));
  }
  State.SetItemsProcessed(State.iterations() * 2);
  State.SetLabel("machine ops (rel store + acq load)");
}

void bmMachineCas(benchmark::State &State) {
  FirstChoice C;
  Machine M(C);
  unsigned T0 = M.addThread();
  Loc X = M.alloc("x");
  uint64_t I = 0;
  Machine *Mp = &M;
  std::unique_ptr<Machine> Fresh;
  for (auto _ : State) {
    if (++I % 4096 == 0) {
      Fresh = std::make_unique<Machine>(C);
      T0 = Fresh->addThread();
      X = Fresh->alloc("x");
      Mp = Fresh.get();
      I = 1;
    }
    benchmark::DoNotOptimize(
        Mp->cas(T0, X, I - 1, I, MemOrder::AcqRel));
  }
  State.SetItemsProcessed(State.iterations());
  State.SetLabel("machine acq_rel CAS");
}

sim::Task<void> benchEnqueuer(sim::Env &E, lib::MsQueue &Q) {
  auto T1 = Q.enqueue(E, 1);
  co_await T1;
  auto T2 = Q.enqueue(E, 2);
  co_await T2;
}

sim::Task<void> benchDequeuer(sim::Env &E, lib::MsQueue &Q) {
  auto T1 = Q.dequeue(E);
  co_await T1;
  auto T2 = Q.dequeue(E);
  co_await T2;
}

void bmExplorerExecution(benchmark::State &State) {
  // Random-mode executions of a 2-thread MS-queue workload, including
  // event recording and the QueueConsistent check per execution.
  Explorer::Options Opts;
  Opts.ExploreMode = Explorer::Mode::Random;
  Opts.RandomRuns = ~0ull;
  Opts.Seed = 42;
  Explorer Ex(Opts);
  for (auto _ : State) {
    if (!Ex.beginExecution())
      break;
    Machine M(Ex);
    Scheduler S(M, Ex);
    spec::SpecMonitor Mon;
    lib::MsQueue Q(M, Mon, "q");
    sim::Env &E0 = S.newThread();
    S.start(E0, benchEnqueuer(E0, Q));
    sim::Env &E1 = S.newThread();
    S.start(E1, benchDequeuer(E1, Q));
    auto R = S.run(100000);
    benchmark::DoNotOptimize(
        spec::checkQueueConsistent(Mon.graph(), Q.objId()).ok());
    Ex.endExecution(R);
  }
  State.SetItemsProcessed(State.iterations());
  State.SetLabel("model-checked executions (2-thread MS queue)");
}

//===----------------------------------------------------------------------===//
// Parallel-scaling table
//===----------------------------------------------------------------------===//

Task<void> sbThread(Env &E, Loc Mine, Loc Theirs) {
  co_await E.store(Mine, 1, MemOrder::Relaxed);
  co_await E.load(Theirs, MemOrder::Relaxed);
}

Task<void> mpWriterT(Env &E, Loc X, Loc F) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, MemOrder::Release);
}

Task<void> mpReaderT(Env &E, Loc X, Loc F) {
  co_await E.load(F, MemOrder::Acquire);
  co_await E.load(X, MemOrder::Relaxed);
}

Workload sbWorkload(unsigned Workers) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, []() -> Workload::Body {
    Workload::Body B{[](Machine &M, Scheduler &S) {
      Loc X = M.alloc("x"), Y = M.alloc("y");
      Env &E0 = S.newThread();
      S.start(E0, sbThread(E0, X, Y));
      Env &E1 = S.newThread();
      S.start(E1, sbThread(E1, Y, X));
    }};
    B.CowSafe = true; // No state outside the machine and coroutine locals.
    B.CowSkipFinished = true;
    return B;
  });
}

Workload mpWorkload(unsigned Workers) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, []() -> Workload::Body {
    Workload::Body B{[](Machine &M, Scheduler &S) {
      Loc X = M.alloc("x"), F = M.alloc("f");
      Env &E0 = S.newThread();
      S.start(E0, mpWriterT(E0, X, F));
      Env &E1 = S.newThread();
      S.start(E1, mpReaderT(E1, X, F));
    }};
    B.CowSafe = true; // No state outside the machine and coroutine locals.
    B.CowSkipFinished = true;
    return B;
  });
}

/// The E2 MS-queue configuration (enq{1,2} + 2 dequeuers, preemption
/// bound 2), checked against QueueConsistent every execution. The body
/// factory gives each worker private monitor/queue state.
Workload msQueueWorkload(unsigned Workers, uint64_t MaxExecutions,
                         ReductionMode Red = ReductionMode::None,
                         unsigned Pb = 2) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = Pb;
  Opts.MaxExecutions = MaxExecutions;
  Opts.Reduction = Red;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::MsQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    Workload::Body B{[St](Machine &M, Scheduler &S) {
                       if (!St->Mon)
                         St->Mon = std::make_unique<spec::SpecMonitor>();
                       St->Mon->beginExecution(M);
                       St->Q = std::make_unique<lib::MsQueue>(M, *St->Mon, "q");
                       St->Got0.clear();
                       St->Got1.clear();
                       Env &E0 = S.newThread();
                       S.start(E0, bench::enqueuer(E0, *St->Q, {1, 2}));
                       Env &E1 = S.newThread();
                       S.start(E1, bench::dequeuer(E1, *St->Q, 1, &St->Got0));
                       Env &E2 = S.newThread();
                       S.start(E2, bench::dequeuer(E2, *St->Q, 1, &St->Got1));
                     },
                     [St](Machine &, Scheduler &, Scheduler::RunResult R) {
                       if (R != Scheduler::RunResult::Done)
                         return true; // deadlocks/limits counted, not failed
                       return spec::checkQueueConsistent(St->Mon->graph(),
                                                         St->Q->objId())
                           .ok();
                     }};
    // The cross-step client state is the monitor plus the Got vectors
    // (the queue object is rebuilt by Setup). Restoring Got after the
    // fast-forward also covers finished-thread skipping.
    struct CowState {
      spec::SpecMonitor::Epoch MonEpoch;
      std::vector<Value> Got0, Got1;
    };
    B.CowSave = [St](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<CowState>();
      auto &C = *std::static_pointer_cast<CowState>(Slot);
      C.MonEpoch = St->Mon->epoch();
      C.Got0 = St->Got0;
      C.Got1 = St->Got1;
    };
    B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
      const auto &C = *std::static_pointer_cast<CowState>(Slot);
      St->Mon->trimToEpoch(C.MonEpoch);
      St->Got0 = C.Got0;
      St->Got1 = C.Got1;
    };
    B.CowSkipFinished = true;
    return B;
  });
}

/// The locked-queue verification workload (E7's slowest row): coarse
/// lock acquire/release around every operation makes spinning readers on
/// the lock cell the dominant interleaving source — exactly the
/// commuting-reads pattern the source-set reduction collapses.
Workload lockedQueueWorkload(unsigned Workers, ReductionMode Red,
                             uint64_t MaxExecutions, unsigned Pb = 2) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = Pb;
  Opts.MaxExecutions = MaxExecutions;
  Opts.Reduction = Red;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::LockedQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    Workload::Body B{
        [St](Machine &M, Scheduler &S) {
          if (!St->Mon)
                         St->Mon = std::make_unique<spec::SpecMonitor>();
                       St->Mon->beginExecution(M);
          St->Q = std::make_unique<lib::LockedQueue>(M, *St->Mon, "q", 16);
          St->Got0.clear();
          St->Got1.clear();
          Env &E0 = S.newThread();
          S.start(E0, bench::enqueuer(E0, *St->Q, {1, 2}));
          Env &E1 = S.newThread();
          S.start(E1, bench::dequeuer(E1, *St->Q, 1, &St->Got0));
          Env &E2 = S.newThread();
          S.start(E2, bench::dequeuer(E2, *St->Q, 1, &St->Got1));
        },
        [St](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return true;
          return spec::checkQueueConsistent(St->Mon->graph(), St->Q->objId())
              .ok();
        }};
    struct CowState {
      spec::SpecMonitor::Epoch MonEpoch;
      std::vector<Value> Got0, Got1;
    };
    B.CowSave = [St](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<CowState>();
      auto &C = *std::static_pointer_cast<CowState>(Slot);
      C.MonEpoch = St->Mon->epoch();
      C.Got0 = St->Got0;
      C.Got1 = St->Got1;
    };
    B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
      const auto &C = *std::static_pointer_cast<CowState>(Slot);
      St->Mon->trimToEpoch(C.MonEpoch);
      St->Got0 = C.Got0;
      St->Got1 = C.Got1;
    };
    B.CowSkipFinished = true;
    return B;
  });
}

struct ScaleRow {
  std::string Name;
  unsigned Workers;
  size_t Job; ///< RowTimer row.
  Explorer::Summary Sum;
  double Speedup = 0;
};

std::string fmtF(double V, const char *Fmt = "%.0f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

void addScaling(bench::RowTimer &Timer, std::vector<ScaleRow> &Rows,
                const std::string &Name, Workload (*Make)(unsigned)) {
  for (unsigned W : {1u, 2u, 4u})
    Rows.push_back(
        {Name, W, Timer.add([Make, W] { return explore(Make(W)); }), {}});
}

/// Fills the rows' summaries once \p Timer has run; each workload's
/// 1-worker row comes first and is its speedup base.
void finishScaling(bench::RowTimer &Timer, std::vector<ScaleRow> &Rows) {
  double Base = 0;
  for (ScaleRow &R : Rows) {
    R.Sum = Timer.median(R.Job);
    if (R.Workers == 1)
      Base = R.Sum.Perf.ExecsPerSec;
    R.Speedup = Base > 0 ? R.Sum.Perf.ExecsPerSec / Base : 0.0;
  }
}

void printScalingTable(const std::vector<ScaleRow> &Rows) {
  std::printf("\nP4b: parallel exploration scaling (executions/second; "
              "hardware threads available: %u)\n\n",
              std::thread::hardware_concurrency());
  bench::Table T({"workload", "workers", "executions", "exhausted",
                  "execs/sec", "speedup", "peak frontier", "peak queue"});
  for (const ScaleRow &R : Rows)
    T.addRow({R.Name, bench::fmtU64(R.Workers),
              bench::fmtU64(R.Sum.Executions),
              R.Sum.Exhausted ? "yes" : "no",
              fmtF(R.Sum.Perf.ExecsPerSec),
              fmtF(R.Speedup, "%.2fx"),
              bench::fmtU64(R.Sum.Perf.PeakFrontier),
              bench::fmtU64(R.Sum.Perf.PeakQueue)});
  T.print();
}

//===----------------------------------------------------------------------===//
// Partial-order reduction before/after (E14 source sets)
//===----------------------------------------------------------------------===//

struct RedRow {
  std::string Name;
  ReductionMode Red;
  size_t Job; ///< RowTimer row.
  Explorer::Summary Sum;
  double ExecRatio = 1.0;  ///< Unreduced executions / this row's executions.
  double WallRatio = 1.0;  ///< Unreduced wall / this row's wall.
};

const char *redName(ReductionMode R) {
  return R == ReductionMode::SourceSet ? "source-set" : "none";
}

/// One E9-style conformance scenario (3-thread MS queue, full
/// reference-model verdict per execution) at preemption bound \p Pb —
/// the per-scenario unit the conformance sweep runs thousands of times,
/// so its reduction ratio is the one that decides whether pb=3 sweeps
/// are reachable.
Workload conformanceWorkload(unsigned Workers, ReductionMode Red,
                             uint64_t MaxExecutions, unsigned Pb) {
  check::GenOptions G;
  G.MinThreads = G.MaxThreads = 3;
  G.MinOpsPerThread = 2;
  G.MaxOpsPerThread = 3;
  check::Scenario S = check::generateScenario(
      check::Lib::MsQueue, check::scenarioSeed(1, check::Lib::MsQueue, 0), G);
  Explorer::Options Opts =
      check::scenarioOptions(S, MaxExecutions, Workers, Red);
  Opts.PreemptionBound = Pb;
  return check::makeWorkload(S, check::Mutation::None, Opts);
}

void addReduction(bench::RowTimer &Timer, std::vector<RedRow> &Rows,
                  const std::string &Name,
                  Workload (*Make)(unsigned, ReductionMode, uint64_t),
                  uint64_t MaxExecutions) {
  for (ReductionMode R : {ReductionMode::None, ReductionMode::SourceSet})
    Rows.push_back({Name, R,
                    Timer.add([Make, R, MaxExecutions] {
                      return explore(Make(1, R, MaxExecutions));
                    }),
                    {}});
}

/// Fills the rows' summaries once \p Timer has run; each workload's
/// unreduced row comes first and is its ratio base.
void finishReduction(bench::RowTimer &Timer, std::vector<RedRow> &Rows) {
  Explorer::Summary Base;
  for (RedRow &R : Rows) {
    R.Sum = Timer.median(R.Job);
    if (R.Red == ReductionMode::None) {
      Base = R.Sum;
      continue;
    }
    R.ExecRatio = R.Sum.Executions ? static_cast<double>(Base.Executions) /
                                         static_cast<double>(R.Sum.Executions)
                                   : 0.0;
    R.WallRatio = R.Sum.Perf.WallSeconds > 0
                      ? Base.Perf.WallSeconds / R.Sum.Perf.WallSeconds
                      : 0.0;
  }
}

void printReductionTable(const std::vector<RedRow> &Rows) {
  std::printf("\nE14: partial-order reduction before/after (serial; "
              "unreduced vs source-set DPOR)\n\n");
  bench::Table T({"workload", "reduction", "executions", "sleep-pruned",
                  "rf-pruned", "src-pruned", "exhausted", "wall s",
                  "exec ratio"});
  for (const RedRow &R : Rows)
    T.addRow({R.Name, redName(R.Red), bench::fmtU64(R.Sum.Executions),
              bench::fmtU64(R.Sum.SleepPruned),
              bench::fmtU64(R.Sum.RfPruned),
              bench::fmtU64(R.Sum.SourcePruned),
              R.Sum.Exhausted ? "yes" : "no",
              fmtF(R.Sum.Perf.WallSeconds, "%.2f"),
              R.Red == ReductionMode::None ? "1.00x"
                                           : fmtF(R.ExecRatio, "%.2fx")});
  T.print();
}

void writeJson(const std::vector<ScaleRow> &Rows,
               const std::vector<RedRow> &RedRows,
               const std::string &OutDir) {
  const unsigned Hw = std::thread::hardware_concurrency();
  JsonWriter J;
  J.beginObject();
  J.field("experiment", "P4b parallel exploration scaling");
  J.field("hardware_threads", static_cast<uint64_t>(Hw));
  J.key("rows");
  J.beginArray();
  for (const ScaleRow &R : Rows) {
    J.beginObject();
    J.field("workload", R.Name);
    J.field("workers", R.Workers);
    // Stamped at produce time so comparisons on a different machine still
    // know this row measured scheduler thrash, not the engine.
    J.field("oversubscribed", R.Workers > Hw);
    J.field("executions", R.Sum.Executions);
    J.field("exhausted", R.Sum.Exhausted);
    J.field("violations", R.Sum.Violations);
    J.field("wall_seconds", R.Sum.Perf.WallSeconds);
    J.field("execs_per_sec", R.Sum.Perf.ExecsPerSec);
    J.field("speedup_vs_serial", R.Speedup);
    J.field("max_depth", R.Sum.MaxDepth);
    J.field("peak_frontier", R.Sum.Perf.PeakFrontier);
    J.field("peak_queue", R.Sum.Perf.PeakQueue);
    J.endObject();
  }
  J.endArray();
  J.key("reduction_rows");
  J.beginArray();
  for (const RedRow &R : RedRows) {
    J.beginObject();
    J.field("workload", R.Name);
    J.field("reduction", redName(R.Red));
    J.field("executions", R.Sum.Executions);
    J.field("sleep_pruned", R.Sum.SleepPruned);
    J.field("rf_pruned", R.Sum.RfPruned);
    J.field("source_pruned", R.Sum.SourcePruned);
    J.field("cache_hits", R.Sum.CacheHits);
    J.field("completed", R.Sum.Completed);
    J.field("exhausted", R.Sum.Exhausted);
    J.field("wall_seconds", R.Sum.Perf.WallSeconds);
    J.field("execs_per_sec", R.Sum.Perf.ExecsPerSec);
    J.field("exec_ratio_vs_unreduced", R.ExecRatio);
    J.field("wall_ratio_vs_unreduced", R.WallRatio);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  std::string Path = OutDir + "/BENCH_simulator.json";
  std::ofstream Out(Path);
  Out << J.str() << "\n";
  std::printf("\nwrote %s\n", Path.c_str());
}

} // namespace

BENCHMARK(bmMachineRelAcq)->Iterations(200'000);
BENCHMARK(bmMachineCas)->Iterations(200'000);
BENCHMARK(bmExplorerExecution)->Iterations(3'000);

int main(int argc, char **argv) {
  std::string OutDir = bench::benchOutDir(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  bench::RowTimer Timer;
  std::vector<ScaleRow> Rows;
  addScaling(Timer, Rows, "SB litmus", sbWorkload);
  addScaling(Timer, Rows, "MP litmus", mpWorkload);
  addScaling(Timer, Rows, "MS queue (E2, pb=2)", +[](unsigned W) {
    return msQueueWorkload(W, 500'000);
  });

  std::vector<RedRow> RedRows;
  addReduction(Timer, RedRows, "locked queue (E7, pb=2)",
               +[](unsigned W, ReductionMode R, uint64_t Max) {
                 return lockedQueueWorkload(W, R, Max, 2);
               },
               4'000'000);
  addReduction(Timer, RedRows, "MS queue (E2, pb=2)",
               +[](unsigned W, ReductionMode R, uint64_t Max) {
                 return msQueueWorkload(W, Max, R, 2);
               },
               4'000'000);
  // The pb=3 rows (EXPERIMENTS.md E14): the E7 locked queue and an E9
  // conformance scenario, the trees where the reduction matters most.
  addReduction(Timer, RedRows, "locked queue (E7, pb=3)",
               +[](unsigned W, ReductionMode R, uint64_t Max) {
                 return lockedQueueWorkload(W, R, Max, 3);
               },
               8'000'000);
  addReduction(Timer, RedRows, "conformance MS queue (E9, pb=3)",
               +[](unsigned W, ReductionMode R, uint64_t Max) {
                 return conformanceWorkload(W, R, Max, 3);
               },
               8'000'000);

  Timer.run();
  finishScaling(Timer, Rows);
  finishReduction(Timer, RedRows);
  printScalingTable(Rows);
  printReductionTable(RedRows);

  writeJson(Rows, RedRows, OutDir);
  return 0;
}
