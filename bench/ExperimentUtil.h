//===-- bench/ExperimentUtil.h - Shared experiment drivers ------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the model-checking experiment binaries (E1-E7 in
/// DESIGN.md): simulated-thread workload helpers, per-execution check
/// plumbing and fixed-width table printing. Each bench binary prints the
/// rows of the paper artifact it regenerates; see EXPERIMENTS.md for the
/// mapping.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_BENCH_EXPERIMENTUTIL_H
#define COMPASS_BENCH_EXPERIMENTUTIL_H

#include "lib/Container.h"
#include "lib/HwQueue.h"
#include "lib/Locked.h"
#include "lib/MsQueue.h"
#include "lib/TreiberStack.h"
#include "sim/Workload.h"
#include "spec/SpecMonitor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace compass::bench {

//===----------------------------------------------------------------------===//
// Bench output hygiene
//===----------------------------------------------------------------------===//

/// Parses and removes a `--bench-out <dir>` flag from argv (so later flag
/// parsers, e.g. benchmark::Initialize, never see it), defaulting to the
/// current working directory. Prints the resolved absolute output
/// directory, and — when the binary was built with assertions enabled
/// (no NDEBUG) — emits a loud warning so Debug numbers never silently land
/// in the committed perf trajectory.
inline std::string benchOutDir(int &Argc, char **Argv) {
  std::string Dir = ".";
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--bench-out")) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--bench-out needs a directory\n");
        std::exit(2);
      }
      Dir = Argv[I + 1];
      for (int J = I; J + 2 <= Argc; ++J)
        Argv[J] = Argv[J + 2];
      Argc -= 2;
      break;
    }
#ifndef NDEBUG
  std::fprintf(stderr,
               "*** WARNING ***********************************************\n"
               "* This benchmark binary was built WITHOUT NDEBUG:         *\n"
               "* assertions are live and numbers are NOT representative. *\n"
               "* Do not commit this run's BENCH_*.json. Use the          *\n"
               "* bench-lto CMake preset for recorded figures.            *\n"
               "***********************************************************\n");
#endif
  std::error_code Ec;
  std::filesystem::path Abs = std::filesystem::absolute(Dir, Ec);
  std::string Out = Ec ? Dir : Abs.lexically_normal().string();
  std::printf("bench output directory: %s\n", Out.c_str());
  return Out;
}

/// Times exploration rows on a machine whose speed drifts over seconds:
/// run() explores every row in Passes rounds, each repeating the row until
/// it has run for its share of MinSeconds, so a row's samples span the
/// whole measurement (a row whose first run exceeds LongRunSeconds runs
/// once). median() returns the run with the median execs/sec. A repeat
/// whose deterministic core differs from the first exits with status 1.
class RowTimer {
public:
  using Runner = std::function<sim::Explorer::Summary()>;

  /// Adds a row; returns its index for median().
  size_t add(Runner Run) {
    Rows.push_back({std::move(Run), {}, 0});
    return Rows.size() - 1;
  }

  void run() {
    for (unsigned P = 1; P <= Passes; ++P)
      for (Row &R : Rows) {
        if (!R.Runs.empty() &&
            R.Runs.front().Perf.WallSeconds > LongRunSeconds)
          continue;
        do {
          R.Runs.push_back(R.Run());
          R.Total += R.Runs.back().Perf.WallSeconds;
          if (!R.Runs.back().coreEquals(R.Runs.front())) {
            std::fprintf(stderr, "FAIL: a repeated exploration changed its "
                                 "deterministic core\n");
            std::exit(1);
          }
        } while (R.Total < MinSeconds * P / Passes);
      }
  }

  const sim::Explorer::Summary &median(size_t I) {
    std::vector<sim::Explorer::Summary> &Runs = Rows[I].Runs;
    std::sort(Runs.begin(), Runs.end(), [](const auto &A, const auto &B) {
      return A.Perf.ExecsPerSec < B.Perf.ExecsPerSec;
    });
    return Runs[(Runs.size() - 1) / 2];
  }

private:
  static constexpr unsigned Passes = 5;
  static constexpr double MinSeconds = 0.25;
  static constexpr double LongRunSeconds = 1.0;

  struct Row {
    Runner Run;
    std::vector<sim::Explorer::Summary> Runs;
    double Total = 0;
  };
  std::vector<Row> Rows;
};

//===----------------------------------------------------------------------===//
// Table printing
//===----------------------------------------------------------------------===//

/// Fixed-width text table; print() renders header, separator and rows.
class Table {
public:
  explicit Table(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  void print() const {
    std::vector<size_t> Width(Header.size(), 0);
    auto Measure = [&](const std::vector<std::string> &Row) {
      for (size_t I = 0; I != Row.size() && I != Width.size(); ++I)
        if (Row[I].size() > Width[I])
          Width[I] = Row[I].size();
    };
    Measure(Header);
    for (const auto &Row : Rows)
      Measure(Row);

    auto PrintRow = [&](const std::vector<std::string> &Row) {
      std::printf("|");
      for (size_t I = 0; I != Width.size(); ++I) {
        const std::string &Cell = I < Row.size() ? Row[I] : std::string();
        std::printf(" %-*s |", static_cast<int>(Width[I]), Cell.c_str());
      }
      std::printf("\n");
    };
    PrintRow(Header);
    std::printf("|");
    for (size_t I = 0; I != Width.size(); ++I)
      std::printf("%s|", std::string(Width[I] + 2, '-').c_str());
    std::printf("\n");
    for (const auto &Row : Rows)
      PrintRow(Row);
  }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

inline std::string fmtU64(uint64_t V) { return std::to_string(V); }

/// "0" rendered as "none", otherwise the count — for violation columns.
inline std::string fmtViolations(uint64_t V) {
  return V == 0 ? "none" : std::to_string(V);
}

//===----------------------------------------------------------------------===//
// Simulated queue/stack workload helpers
//===----------------------------------------------------------------------===//

enum class QueueImpl { Ms, Hw, Locked };
enum class StackImpl { Treiber, Locked };

inline const char *queueImplName(QueueImpl K) {
  switch (K) {
  case QueueImpl::Ms:
    return "michael-scott";
  case QueueImpl::Hw:
    return "herlihy-wing";
  case QueueImpl::Locked:
    return "locked";
  }
  return "?";
}

inline const char *stackImplName(StackImpl K) {
  return K == StackImpl::Treiber ? "treiber" : "locked";
}

inline std::unique_ptr<lib::SimQueue>
makeQueue(QueueImpl K, rmc::Machine &M, spec::SpecMonitor &Mon) {
  switch (K) {
  case QueueImpl::Ms:
    return std::make_unique<lib::MsQueue>(M, Mon, "q");
  case QueueImpl::Hw:
    return std::make_unique<lib::HwQueue>(M, Mon, "q", 16);
  case QueueImpl::Locked:
    return std::make_unique<lib::LockedQueue>(M, Mon, "q", 16);
  }
  return nullptr;
}

inline std::unique_ptr<lib::SimStack>
makeStack(StackImpl K, rmc::Machine &M, spec::SpecMonitor &Mon) {
  if (K == StackImpl::Treiber)
    return std::make_unique<lib::TreiberStack>(M, Mon, "s");
  return std::make_unique<lib::LockedStack>(M, Mon, "s", 16);
}

inline sim::Task<void> enqueuer(sim::Env &E, lib::SimQueue &Q,
                                std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = Q.enqueue(E, V);
    co_await T;
  }
}

inline sim::Task<void> dequeuer(sim::Env &E, lib::SimQueue &Q, unsigned N,
                                std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = Q.dequeue(E);
    Out->push_back(co_await T);
  }
}

inline sim::Task<void> pusher(sim::Env &E, lib::SimStack &S,
                              std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = S.push(E, V);
    co_await T;
  }
}

inline sim::Task<void> popper(sim::Env &E, lib::SimStack &S, unsigned N,
                              std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = S.pop(E);
    Out->push_back(co_await T);
  }
}

/// Renders a workload like "enq[2]+enq[1] / deq[2]".
inline std::string
workloadName(const std::vector<std::vector<rmc::Value>> &Producers,
             const std::vector<unsigned> &Consumers, const char *ProdName,
             const char *ConsName) {
  std::string Out;
  for (size_t I = 0; I != Producers.size(); ++I) {
    if (I)
      Out += "+";
    Out += std::string(ProdName) + "[" +
           std::to_string(Producers[I].size()) + "]";
  }
  Out += " / ";
  for (size_t I = 0; I != Consumers.size(); ++I) {
    if (I)
      Out += "+";
    Out += std::string(ConsName) + "[" + std::to_string(Consumers[I]) + "]";
  }
  return Out;
}

} // namespace compass::bench

#endif // COMPASS_BENCH_EXPERIMENTUTIL_H
