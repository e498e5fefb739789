//===-- check/Main.cpp - compass_check CLI --------------------------------===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance-harness command line (README quickstart):
///
///   compass_check sweep   [--seed N] [--per-lib N] [--workers N]
///                         [--max-execs N] [--lib NAME]...
///                         [--reduction none|source]
///                         [--engine auto|root] [--json]
///                         [--checkpoint FILE] [--checkpoint-every N|Ns]
///                         [--time-budget SECS] [--telemetry FILE]
///                         [--resume FILE]
///   compass_check mutants [--seed N] [--max-scenarios N] [--max-execs N]
///                         [--mut NAME]... [--no-shrink] [--emit-corpus DIR]
///                         [--reduction none|source]
///   compass_check replay  FILE...
///
/// `sweep` explores generated scenarios against the pristine libraries and
/// exits nonzero on any violation. It is crash-resilient: SIGINT/SIGTERM, a
/// spent `--time-budget`, or a `--checkpoint-every` cadence serialize the
/// live exploration state to the `--checkpoint` file (default
/// compass_sweep.ckpt); `--resume FILE` finishes an interrupted run to the
/// bit-identical fingerprint at any `--workers` count. `--telemetry FILE`
/// appends structured JSONL progress records (scripts/telemetry_report.py
/// renders them). `mutants` must kill every seeded mutant (exit nonzero on
/// a survivor) and can persist the shrunk counterexamples as corpus files.
/// `replay` re-executes corpus entries and exits nonzero when one no
/// longer reproduces its violation.
///
/// A checkpoint records the reduction mode and engine path of its executed
/// share; `--resume` rejects (exit 2) an explicit `--reduction`/`--engine`
/// that contradicts it, rather than silently continuing under either
/// configuration.
///
/// Exit codes: 0 success, 1 violations/survivors, 2 usage error,
/// 3 interrupted (sweep checkpoint written).
///
//===----------------------------------------------------------------------===//

#include "check/Checkpoint.h"
#include "check/Conformance.h"
#include "check/Telemetry.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace compass;
using namespace compass::check;

namespace {

[[noreturn]] void usage(const char *Msg = nullptr) {
  if (Msg)
    std::fprintf(stderr, "compass_check: %s\n", Msg);
  std::fprintf(stderr,
               "usage:\n"
               "  compass_check sweep   [--seed N] [--per-lib N] "
               "[--workers N] [--max-execs N] [--lib NAME]... "
               "[--reduction none|source] [--engine auto|root] "
               "[--json]\n"
               "                        [--checkpoint FILE] "
               "[--checkpoint-every N|Ns] [--time-budget SECS] "
               "[--telemetry FILE] [--resume FILE]\n"
               "  compass_check mutants [--seed N] [--max-scenarios N] "
               "[--max-execs N] [--mut NAME]... [--no-shrink] "
               "[--emit-corpus DIR] [--reduction none|source]\n"
               "  compass_check replay  FILE...\n"
               "numeric flags take unsigned decimal values; --workers "
               "must be >= 1; --checkpoint-every takes executions (N) or "
               "seconds (Ns); --time-budget takes seconds (may be "
               "fractional)\n");
  std::exit(2);
}

/// Strict unsigned decimal parse: rejects empty values, signs, whitespace,
/// non-digit trailers, and values that overflow uint64_t. Malformed input
/// is a usage error (exit 2) — a silently wrapped "--max-execs -1" must
/// never truncate a verification run.
uint64_t parseU64(const char *Flag, const char *V) {
  if (!V[0])
    usage((std::string("empty value for ") + Flag).c_str());
  for (const char *P = V; *P; ++P)
    if (*P < '0' || *P > '9')
      usage((std::string("bad value for ") + Flag + ": '" + V +
             "' (unsigned decimal required)")
                .c_str());
  errno = 0;
  char *End = nullptr;
  uint64_t N = std::strtoull(V, &End, 10);
  if (errno == ERANGE || (End && *End))
    usage((std::string("value for ") + Flag + " out of range: '" + V + "'")
              .c_str());
  return N;
}

/// parseU64 constrained to fit \p Max (for unsigned-typed options).
uint64_t parseBounded(const char *Flag, const char *V, uint64_t Max) {
  uint64_t N = parseU64(Flag, V);
  if (N > Max)
    usage((std::string("value for ") + Flag + " out of range: '" + V + "'")
              .c_str());
  return N;
}

/// Strict nonnegative seconds parse (fractions allowed).
double parseSeconds(const char *Flag, const char *V) {
  if (!V[0])
    usage((std::string("empty value for ") + Flag).c_str());
  for (const char *P = V; *P; ++P)
    if ((*P < '0' || *P > '9') && *P != '.')
      usage((std::string("bad value for ") + Flag + ": '" + V + "'")
                .c_str());
  errno = 0;
  char *End = nullptr;
  double S = std::strtod(V, &End);
  if (errno == ERANGE || (End && *End) || !(S >= 0))
    usage((std::string("bad value for ") + Flag + ": '" + V + "'").c_str());
  return S;
}

/// Pops the value of flag \p Name from argv position \p I.
const char *flagValue(int Argc, char **Argv, int &I, const char *Name) {
  if (I + 1 >= Argc)
    usage((std::string(Name) + " needs a value").c_str());
  return Argv[++I];
}

sim::ReductionMode parseReduction(const char *V) {
  sim::ReductionMode M;
  if (!sim::parseReductionMode(V, M))
    usage((std::string("bad value for --reduction (none|source): ") + V)
              .c_str());
  return M;
}

sim::EnginePath parseEngine(const char *V) {
  sim::EnginePath P;
  if (!sim::parseEnginePath(V, P))
    usage((std::string("bad value for --engine (auto|root): ") + V).c_str());
  return P;
}

/// Cooperative stop flag set by SIGINT/SIGTERM (sweep only).
std::atomic<bool> GStopRequested{false};

void handleStopSignal(int) { GStopRequested.store(true); }

int cmdSweep(int Argc, char **Argv) {
  SweepOptions O;
  bool Json = false;
  bool RedSet = false, EngSet = false;
  std::string CkptPath = "compass_sweep.ckpt";
  std::string ResumePath, TelemPath;
  uint64_t CkptEveryExecs = 0;
  double CkptEverySec = 0, TimeBudget = 0;
  for (int I = 0; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--seed")
      O.Seed = parseU64("--seed", flagValue(Argc, Argv, I, "--seed"));
    else if (A == "--per-lib")
      O.ScenariosPerLib = static_cast<unsigned>(parseBounded(
          "--per-lib", flagValue(Argc, Argv, I, "--per-lib"), ~0u));
    else if (A == "--workers") {
      O.Workers = static_cast<unsigned>(parseBounded(
          "--workers", flagValue(Argc, Argv, I, "--workers"), ~0u));
      if (O.Workers == 0)
        usage("--workers must be >= 1");
    } else if (A == "--max-execs")
      O.MaxExecutionsPerScenario =
          parseU64("--max-execs", flagValue(Argc, Argv, I, "--max-execs"));
    else if (A == "--lib") {
      Lib L;
      const char *Name = flagValue(Argc, Argv, I, "--lib");
      if (!parseLib(Name, L))
        usage((std::string("unknown library ") + Name).c_str());
      O.Libs.push_back(L);
    } else if (A == "--reduction") {
      O.Reduction =
          parseReduction(flagValue(Argc, Argv, I, "--reduction"));
      RedSet = true;
    } else if (A == "--engine") {
      O.Engine = parseEngine(flagValue(Argc, Argv, I, "--engine"));
      EngSet = true;
    } else if (A == "--json")
      Json = true;
    else if (A == "--checkpoint")
      CkptPath = flagValue(Argc, Argv, I, "--checkpoint");
    else if (A == "--checkpoint-every") {
      std::string V = flagValue(Argc, Argv, I, "--checkpoint-every");
      if (!V.empty() && V.back() == 's')
        CkptEverySec = parseSeconds("--checkpoint-every",
                                    V.substr(0, V.size() - 1).c_str());
      else
        CkptEveryExecs = parseU64("--checkpoint-every", V.c_str());
      if (CkptEveryExecs == 0 && CkptEverySec <= 0)
        usage("--checkpoint-every must be positive");
    } else if (A == "--time-budget") {
      TimeBudget = parseSeconds("--time-budget",
                                flagValue(Argc, Argv, I, "--time-budget"));
      if (TimeBudget <= 0)
        usage("--time-budget must be positive");
    } else if (A == "--telemetry")
      TelemPath = flagValue(Argc, Argv, I, "--telemetry");
    else if (A == "--resume")
      ResumePath = flagValue(Argc, Argv, I, "--resume");
    else
      usage((std::string("unknown sweep flag ") + A).c_str());
  }

  SweepCheckpoint Resume;
  bool HasResume = false;
  if (!ResumePath.empty()) {
    std::ifstream In(ResumePath);
    if (!In) {
      std::fprintf(stderr, "compass_check: cannot read %s\n",
                   ResumePath.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Err;
    if (!parseSweepCheckpoint(Buf.str(), Resume, Err)) {
      std::fprintf(stderr, "compass_check: %s: %s\n", ResumePath.c_str(),
                   Err.c_str());
      return 2;
    }
    HasResume = true;
    // A checkpoint's executed share is tied to the reduction mode and
    // engine path that produced it; splicing in a different one would
    // produce a fingerprint belonging to neither configuration. An
    // explicit contradicting flag is an error, not a preference.
    if (RedSet && O.Reduction != Resume.Reduction) {
      std::fprintf(stderr,
                   "compass_check: --reduction %s contradicts checkpoint %s "
                   "(recorded under --reduction %s); resume without the "
                   "flag or restart the sweep\n",
                   sim::reductionModeName(O.Reduction), ResumePath.c_str(),
                   sim::reductionModeName(Resume.Reduction));
      return 2;
    }
    if (EngSet && O.Engine != Resume.Engine) {
      std::fprintf(stderr,
                   "compass_check: --engine %s contradicts checkpoint %s "
                   "(recorded under --engine %s); resume without the flag "
                   "or restart the sweep\n",
                   sim::enginePathName(O.Engine), ResumePath.c_str(),
                   sim::enginePathName(Resume.Engine));
      return 2;
    }
  }

  std::signal(SIGINT, handleStopSignal);
  std::signal(SIGTERM, handleStopSignal);

  std::unique_ptr<Telemetry> Telem;
  if (!TelemPath.empty()) {
    Telem = std::make_unique<Telemetry>(TelemPath);
    if (!Telem->ok()) {
      std::fprintf(stderr, "compass_check: cannot write %s\n",
                   TelemPath.c_str());
      return 2;
    }
  }

  auto WriteCkpt = [&CkptPath](const SweepCheckpoint &K) -> bool {
    // Write-then-rename so a kill mid-write never corrupts a previous
    // checkpoint.
    std::string Tmp = CkptPath + ".tmp";
    {
      std::ofstream Out(Tmp, std::ios::trunc);
      if (!Out) {
        std::fprintf(stderr, "compass_check: cannot write %s\n",
                     Tmp.c_str());
        return false;
      }
      Out << serializeSweepCheckpoint(K);
      if (!Out) {
        std::fprintf(stderr, "compass_check: short write to %s\n",
                     Tmp.c_str());
        return false;
      }
    }
    if (std::rename(Tmp.c_str(), CkptPath.c_str()) != 0) {
      std::fprintf(stderr, "compass_check: cannot rename %s -> %s\n",
                   Tmp.c_str(), CkptPath.c_str());
      return false;
    }
    return true;
  };

  SweepControl C;
  C.StopRequested = &GStopRequested;
  C.TimeBudgetSec = TimeBudget;
  C.CheckpointEveryExecs = CkptEveryExecs;
  C.CheckpointEverySec = CkptEverySec;
  C.Telem = Telem.get();
  if (CkptEveryExecs > 0 || CkptEverySec > 0)
    C.OnCheckpoint = [&](const SweepCheckpoint &K) {
      if (WriteCkpt(K)) {
        std::fprintf(stderr, "compass_check: checkpoint written to %s\n",
                     CkptPath.c_str());
        if (Telem) {
          uint64_t Execs = 0;
          for (const LibSweepStats &St : K.DoneLibs)
            Execs += St.Executions;
          Execs += K.CurLib.Executions;
          if (K.HasScenario)
            Execs += K.Scenario.Partial.Executions;
          Telem->checkpoint(CkptPath, "cadence", Execs);
        }
      }
    };

  if (Telem) {
    SweepOptions Eff = O; // effective config for the record
    std::vector<Lib> Libs = HasResume ? Resume.Libs : O.Libs;
    if (Libs.empty())
      Libs.assign(allLibs(), allLibs() + NumLibs);
    uint64_t Base = 0;
    if (HasResume) {
      Eff.Seed = Resume.Seed;
      Eff.ScenariosPerLib = Resume.ScenariosPerLib;
      Eff.MaxExecutionsPerScenario = Resume.MaxExecutionsPerScenario;
      Eff.Reduction = Resume.Reduction;
      Eff.Engine = Resume.Engine;
      for (const LibSweepStats &St : Resume.DoneLibs)
        Base += St.Executions;
      Base += Resume.CurLib.Executions;
      if (Resume.HasScenario)
        Base += Resume.Scenario.Partial.Executions;
    }
    Telem->runStart(Eff, Libs, HasResume, Base);
  }

  SweepResult R = runSweepResumable(O, C, HasResume ? &Resume : nullptr);

  if (R.Interrupted) {
    const char *Reason = GStopRequested.load() ? "signal" : "time_budget";
    if (!WriteCkpt(R.Ckpt))
      return 2;
    uint64_t Execs = 0;
    for (const LibSweepStats &St : R.Ckpt.DoneLibs)
      Execs += St.Executions;
    Execs += R.Ckpt.CurLib.Executions;
    if (R.Ckpt.HasScenario)
      Execs += R.Ckpt.Scenario.Partial.Executions;
    std::fprintf(stderr,
                 "compass_check: sweep interrupted (%s) after %llu "
                 "executions; resume with --resume %s\n",
                 Reason, static_cast<unsigned long long>(Execs),
                 CkptPath.c_str());
    if (Telem) {
      Telem->checkpoint(CkptPath, Reason, Execs);
      Telem->runEnd(R.Rep, /*Interrupted=*/true);
    }
    return 3;
  }

  if (Telem)
    Telem->runEnd(R.Rep, /*Interrupted=*/false);
  std::printf("%s",
              Json ? (R.Rep.json() + "\n").c_str() : R.Rep.str().c_str());
  return R.Rep.clean() ? 0 : 1;
}

int cmdMutants(int Argc, char **Argv) {
  MutationOptions O;
  std::string CorpusDir;
  for (int I = 0; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--seed")
      O.Seed = parseU64("--seed", flagValue(Argc, Argv, I, "--seed"));
    else if (A == "--max-scenarios")
      O.MaxScenarios = static_cast<unsigned>(parseBounded(
          "--max-scenarios", flagValue(Argc, Argv, I, "--max-scenarios"),
          ~0u));
    else if (A == "--max-execs")
      O.MaxExecutionsPerScenario =
          parseU64("--max-execs", flagValue(Argc, Argv, I, "--max-execs"));
    else if (A == "--mut") {
      Mutation M;
      const char *Name = flagValue(Argc, Argv, I, "--mut");
      if (!parseMutation(Name, M) || M == Mutation::None)
        usage((std::string("unknown mutation ") + Name).c_str());
      O.Muts.push_back(M);
    } else if (A == "--no-shrink")
      O.Shrink = false;
    else if (A == "--emit-corpus")
      CorpusDir = flagValue(Argc, Argv, I, "--emit-corpus");
    else if (A == "--reduction")
      O.Reduction =
          parseReduction(flagValue(Argc, Argv, I, "--reduction"));
    else
      usage((std::string("unknown mutants flag ") + A).c_str());
  }
  std::vector<MutantReport> Reps = runMutationTests(O);
  unsigned Survivors = 0;
  for (const MutantReport &R : Reps) {
    std::printf("%s\n", R.str().c_str());
    if (!R.Killed) {
      ++Survivors;
      continue;
    }
    if (!CorpusDir.empty()) {
      CorpusEntry E = corpusEntryFor(R);
      std::string Path =
          CorpusDir + "/" + mutationName(R.Mut) + ".corpus";
      std::ofstream Out(Path);
      if (!Out) {
        std::fprintf(stderr, "compass_check: cannot write %s\n",
                     Path.c_str());
        return 2;
      }
      Out << formatCorpusEntry(E);
      std::printf("  wrote %s\n", Path.c_str());
    }
  }
  std::printf("%zu/%zu mutants killed\n", Reps.size() - Survivors,
              Reps.size());
  return Survivors ? 1 : 0;
}

int cmdReplay(int Argc, char **Argv) {
  if (!Argc)
    usage("replay needs at least one corpus file");
  int Bad = 0;
  for (int I = 0; I != Argc; ++I) {
    std::ifstream In(Argv[I]);
    if (!In) {
      std::fprintf(stderr, "compass_check: cannot read %s\n", Argv[I]);
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    CorpusEntry E;
    std::string Err;
    if (!parseCorpusEntry(Buf.str(), E, Err)) {
      std::fprintf(stderr, "compass_check: %s: %s\n", Argv[I], Err.c_str());
      return 2;
    }
    TraceDiagnosis D = diagnoseTrace(E.S, E.Mut, scenarioOptions(E.S, 1, 1),
                                     E.Decisions);
    bool Ok = D.failing(); // A corpus entry must reproduce its violation.
    std::printf("%s: %s [%s, %s] %s\n", Argv[I],
                Ok ? "reproduced" : "NOT REPRODUCED", libName(E.S.L),
                mutationName(E.Mut), D.V.str().c_str());
    Bad += !Ok;
  }
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  std::string Cmd = Argv[1];
  if (Cmd == "sweep")
    return cmdSweep(Argc - 2, Argv + 2);
  if (Cmd == "mutants")
    return cmdMutants(Argc - 2, Argv + 2);
  if (Cmd == "replay")
    return cmdReplay(Argc - 2, Argv + 2);
  usage((std::string("unknown command ") + Cmd).c_str());
}
