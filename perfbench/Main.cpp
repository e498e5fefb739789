//===-- perfbench/Main.cpp - Time-to-verdict benchmark driver -------------===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (or `all` three) as a closed loop: inputs are brought
/// to a verdict back to back, one in flight, until --seconds have passed.
/// Every verdict is checked; a wrong one makes the run exit 1.
///
///   perfbench --workload sweep|deep|mutants|all --seed N --seconds S
///             --trace 0|1 [--commit SHA] [--src-digest HEX]
///   perfbench --selftest
///
/// --trace 0 prints the end-to-end metrics; --trace 1 runs a fixed set of
/// inputs (the first Config::TracedInputs of the pool, whatever --seconds
/// says) untraced and then traced, checks that both agree, prints the
/// per-layer metrics plus the tracing overhead, and writes the spans to
/// traces/ beside the binary. The last line of stdout is always one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace compass;
using namespace perfbench;

namespace {

/// Seeds used while the workloads were sized, and one kept out of it.
constexpr const char *SizingSeeds = "1-100";
constexpr uint64_t HeldOutSeed = 101;

/// Timed set-up repetitions per run, spread evenly over the run; set-up
/// time is their median.
constexpr unsigned SetupReps = 11;

/// Inputs beyond the tail percentile below which the tail is unreliable.
constexpr size_t MinBeyondTail = 10;

#ifdef NDEBUG
constexpr bool AssertsOn = false;
#else
constexpr bool AssertsOn = true;
#endif

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Commit = "unknown";
  std::string SrcDigest = "unknown";
  bool SelfTest = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep|deep|mutants|all --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--src-digest HEX]\n"
               "       perfbench --selftest\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + F).c_str());
      return Argv[++I];
    };
    if (F == "--workload")
      A.Workload = Val();
    else if (F == "--seed")
      A.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (F == "--seconds")
      A.Seconds = std::atof(Val().c_str());
    else if (F == "--trace")
      A.Trace = Val() != "0";
    else if (F == "--commit")
      A.Commit = Val();
    else if (F == "--src-digest")
      A.SrcDigest = Val();
    else if (F == "--selftest")
      A.SelfTest = true;
    else
      usage(("unknown flag " + F).c_str());
  }
  if (!A.SelfTest && (A.Workload.empty() || A.Seconds <= 0))
    usage("--workload and a positive --seconds are required");
  return A;
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec / 1e6;
}

/// Peak resident set of this process image (VmHWM) since exec or the last
/// resetPeakRss(). Unlike getrusage's ru_maxrss it can be reset, and a
/// launcher's footprint is not counted.
double peakRssMb() {
  FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof Line, F))
    if (!std::strncmp(Line, "VmHWM:", 6))
      Kb = std::atof(Line + 6);
  std::fclose(F);
  return Kb / 1024;
}

/// Hands freed heap back to the system and restarts VmHWM at the current
/// resident set (Linux 4.0 and later), so the next peakRssMb() covers only
/// what runs from here on.
void resetPeakRss() {
  malloc_trim(0);
  if (FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Geometric mean of the positive values \p V. Verdict times cluster by
/// library and by mutant, with gaps between the clusters, and a median that
/// falls in a gap jumps with the mix of inputs a seed draws; every input
/// moves the geometric mean a little, so it stays put.
double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / V.size());
}

/// Nearest-rank percentile of sorted \p V, and how many samples lie beyond.
double percentile(const std::vector<double> &V, double Pct, size_t &Beyond) {
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100 * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  Beyond = V.size() - Rank;
  return V[Rank - 1];
}

/// The CPUs the process may run on, read once at start-up.
cpu_set_t allowedCpus() {
  static cpu_set_t Allowed = [] {
    cpu_set_t S;
    CPU_ZERO(&S);
    if (sched_getaffinity(0, sizeof S, &S) != 0)
      CPU_ZERO(&S);
    return S;
  }();
  return Allowed;
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the \p N highest-numbered allowed CPUs: one per exploring thread. On a
/// shared virtual machine, waking a thread on another, idle CPU can take
/// hundreds of microseconds and varies with the other tenants' load; on a
/// 1 ms input that moved its verdict time by up to half. Returns the CPUs
/// chosen ("3", "2,3"), or "none" when pinning is not possible.
std::string pinCpus(unsigned N) {
  cpu_set_t Allowed = allowedCpus(), Pin;
  CPU_ZERO(&Pin);
  std::string Chosen;
  for (int C = CPU_SETSIZE - 1; C >= 0 && N; --C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &Pin);
      Chosen = std::to_string(C) + (Chosen.empty() ? "" : ",") + Chosen;
      --N;
    }
  if (Chosen.empty() || sched_setaffinity(0, sizeof Pin, &Pin) != 0)
    return "none";
  return Chosen;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;
  std::string Detail; ///< JSON object: counts behind the metrics.
};

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

/// Set-up: fills \p Pool with the first \p N inputs. Returns the seconds
/// it took, not counting the release of what \p Pool held before.
double setUp(const Config &C, uint64_t Seed, unsigned N,
             std::vector<Input> &Pool) {
  Pool.clear();
  uint64_t T0 = nowNs();
  Pool.reserve(N);
  for (unsigned J = 0; J != N; ++J)
    Pool.push_back(makeInput(C, Seed, J));
  return (nowNs() - T0) / 1e9;
}

/// Where the traced run writes its spans: traces/ beside this binary.
std::string traceDir() {
  std::error_code EC;
  std::filesystem::path Dir =
      std::filesystem::read_symlink("/proc/self/exe", EC).parent_path() /
      "traces";
  std::filesystem::create_directories(Dir, EC);
  return Dir.string();
}

/// Per-layer metrics from the traced outcomes and spans.
void layerMetrics(const std::vector<check::Lib> &Libs,
                  const std::vector<Outcome> &Traced, const Tracer &T,
                  double UntracedMs, double TracedMs, Result &R) {
  const std::vector<Span> &Spans = T.spans();
  std::map<uint32_t, std::vector<const Span *>> BodiesOf;
  for (const Span &S : Spans)
    if (S.Body)
      BodiesOf[S.Parent].push_back(&S);

  ClosureAgg Setup, Check, Save, Restore;
  double ExploreS = 0, SelfS = 0, InputS = 0, HuntS = 0, ShrinkS = 0;
  uint64_t Hunts = 0;
  std::vector<double> LibExploreS(check::NumLibs, 0);
  for (const Span &S : Spans) {
    double Sec = S.ns() / 1e9;
    if (!std::strcmp(S.Name, "input"))
      InputS += Sec;
    else if (!std::strcmp(S.Name, "check.hunt"))
      HuntS += Sec, ++Hunts;
    else if (!std::strcmp(S.Name, "check.shrink"))
      ShrinkS += Sec;
    else if (!std::strcmp(S.Name, "sim.explore")) {
      ExploreS += Sec;
      LibExploreS[static_cast<unsigned>(Libs[S.Input])] += Sec;
      // Self time: the part of the call no body covers, plus each body's
      // lifetime minus its closures (bodies of one worker run serially).
      std::vector<std::pair<uint64_t, uint64_t>> Iv;
      double BodySelf = 0;
      for (const Span *B : BodiesOf[S.Id]) {
        Iv.push_back({B->Begin, B->End});
        BodySelf += (B->ns() - B->Body->closureNs()) / 1e9;
        auto Add = [](ClosureAgg &A, const ClosureAgg &X) {
          A.Ns += X.Ns;
          A.Calls += X.Calls;
        };
        Add(Setup, B->Body->Setup);
        Add(Check, B->Body->Check);
        Add(Save, B->Body->CowSave);
        Add(Restore, B->Body->CowRestore);
      }
      std::sort(Iv.begin(), Iv.end());
      uint64_t Covered = 0, Hi = 0;
      for (auto [B, E] : Iv) {
        B = std::max(B, Hi);
        if (E > B)
          Covered += E - B;
        Hi = std::max(Hi, E);
      }
      SelfS += (S.ns() - std::min<uint64_t>(Covered, S.ns())) / 1e9 + BodySelf;
    }
  }

  sim::Explorer::Summary Tot;
  std::vector<uint64_t> LibExecs(check::NumLibs, 0);
  uint64_t ShrinkCands = 0;
  for (size_t I = 0; I != Traced.size(); ++I) {
    mergeSummary(Tot, Traced[I].Sum);
    LibExecs[static_cast<unsigned>(Libs[I])] += Traced[I].Sum.Executions;
    ShrinkCands += Traced[I].Shrunk.CandidatesTried;
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto Tag = [&Tot](const char *Name) {
    auto It = Tot.Tags.find(Name);
    return It == Tot.Tags.end() ? 0.0 : double(It->second.Choices);
  };
  const auto &P = Tot.Perf;
  std::vector<Metric> &M = R.Metrics;
  M.push_back({"check.setup_s", Setup.Ns / 1e9, "s"});
  M.push_back({"check.setup_calls", double(Setup.Calls), "count"});
  M.push_back({"check.verdict_s", Check.Ns / 1e9, "s"});
  M.push_back({"check.verdict_calls", double(Check.Calls), "count"});
  M.push_back({"check.hunt_share", Ratio(HuntS, InputS), "ratio"});
  M.push_back({"check.hunt_scenarios", double(Hunts), "count"});
  M.push_back({"check.shrink_share", Ratio(ShrinkS, InputS), "ratio"});
  M.push_back({"check.shrink_candidates", double(ShrinkCands), "count"});
  M.push_back({"sim.explore_s", ExploreS, "s"});
  M.push_back({"sim.self_s", SelfS, "s"});
  M.push_back(
      {"sim.ns_per_step", Ratio(SelfS * 1e9, double(P.StepsExecuted)), "ns"});
  M.push_back({"sim.executions", double(Tot.Executions), "count"});
  M.push_back({"sim.execs_per_s", Ratio(Tot.Executions, ExploreS), "1/s"});
  M.push_back({"sim.useful_ratio",
               Ratio(double(Tot.Completed), double(Tot.Executions)), "ratio"});
  M.push_back({"sim.sleep_pruned", double(Tot.SleepPruned), "count"});
  M.push_back({"sim.source_pruned", double(Tot.SourcePruned), "count"});
  M.push_back({"sim.rf_pruned", double(Tot.RfPruned), "count"});
  M.push_back({"sim.cache_hits", double(Tot.CacheHits), "count"});
  M.push_back({"sim.steps_executed", double(P.StepsExecuted), "count"});
  M.push_back({"sim.steps_logical", double(P.StepsLogical), "count"});
  M.push_back({"sim.steps_avoided_ratio",
               1 - Ratio(double(P.StepsExecuted), double(P.StepsLogical)),
               "ratio"});
  M.push_back({"sim.cow_resumes", double(P.CowResumes), "count"});
  M.push_back({"sim.root_runs", double(P.RootRuns), "count"});
  M.push_back({"sim.cow_save_s", Save.Ns / 1e9, "s"});
  M.push_back({"sim.cow_restore_s", Restore.Ns / 1e9, "s"});
  for (const char *T : {"sched", "load", "load-where", "cas"})
    M.push_back({std::string("sim.choices.") + T, Tag(T), "count"});
  M.push_back({"sim.max_depth", double(Tot.MaxDepth), "count"});
  M.push_back({"sim.peak_frontier", double(P.PeakFrontier), "count"});
  M.push_back({"sim.donations", double(P.Donations), "count"});
  M.push_back({"sim.peak_queue", double(P.PeakQueue), "count"});
  for (unsigned L = 0; L != check::NumLibs; ++L) {
    std::string Base =
        std::string("lib.") + check::libName(check::allLibs()[L]);
    M.push_back({Base + ".explore_share", Ratio(LibExploreS[L], ExploreS),
                 "ratio"});
    M.push_back({Base + ".executions", double(LibExecs[L]), "count"});
  }
  M.push_back({"trace.overhead", Ratio(TracedMs, UntracedMs) - 1, "ratio"});
}

/// Runs one workload and fills its metrics. Untraced, the run lasts
/// \p A.Seconds; traced, it covers the first C.TracedInputs inputs, so that
/// its counters and times are comparable between runs and commits.
Result runWorkload(const Args &A, Kind K) {
  Config C = configFor(K);
  Result R;
  std::string Cpus = pinCpus(C.Workers);
  resetPeakRss(); // Drops what an earlier workload of this process left.
  std::vector<Input> Pool;
  setUp(C, A.Seed, A.Trace ? C.TracedInputs : C.PoolSize, Pool);
  resetPeakRss();

  Tracer T;
  std::vector<Outcome> Traced;
  std::vector<check::Lib> Libs; // per input, for the per-library split
  std::vector<double> Ms;
  double UntracedMs = 0, TracedMs = 0;
  uint64_t Decided = 0, Undecided = 0, Wrong = 0, LinAborts = 0;
  std::string FirstWrong;

  // Set-up is timed SetupReps more times, on throwaway pools built at even
  // steps through the run: a few milliseconds at one instant would catch
  // only the machine's state at that instant. The repetitions are kept off
  // the run's clocks and out of its peak memory.
  std::vector<double> SetupTimes;
  double PeakMb = 0, PausedCpu = 0;
  uint64_t PausedNs = 0;
  auto SetupRep = [&] {
    PeakMb = std::max(PeakMb, peakRssMb());
    uint64_t P0 = nowNs();
    double Cpu = cpuSeconds();
    {
      std::vector<Input> Copy;
      SetupTimes.push_back(setUp(C, A.Seed, C.PoolSize, Copy));
    }
    resetPeakRss();
    PausedNs += nowNs() - P0;
    PausedCpu += cpuSeconds() - Cpu;
  };

  double Cpu0 = cpuSeconds();
  uint64_t T0 = nowNs();
  uint64_t Budget = static_cast<uint64_t>(A.Seconds * 1e9);
  auto Elapsed = [&] { return nowNs() - T0 - PausedNs; };
  for (unsigned J = 0;
       A.Trace ? J != Pool.size() : J == 0 || Elapsed() < Budget; ++J) {
    while (!A.Trace && SetupTimes.size() != SetupReps &&
           Elapsed() >= SetupTimes.size() * Budget / SetupReps)
      SetupRep();
    if (J == Pool.size()) // Ran past the pool: generate as we go.
      Pool.push_back(makeInput(C, A.Seed, J));
    Input In = std::move(Pool[J]); // Freed once run, so memory stays flat.
    Outcome O = runInput(C, In);
    Ms.push_back(O.Ms);
    Libs.push_back(In.L);
    ++R.Attempted;
    Decided += O.Decided;
    Undecided += !O.Decided;
    LinAborts += O.LinAborts;
    if (A.Trace) {
      Outcome TO = runInput(C, In, &T, J);
      UntracedMs += O.Ms;
      TracedMs += TO.Ms;
      std::string Diff = compareTraced(C, O, TO);
      if (!Diff.empty() && O.Wrong.empty())
        O.Wrong = "input " + std::to_string(J) + ": " + Diff;
      Traced.push_back(std::move(TO));
    }
    if (!O.Wrong.empty()) {
      ++Wrong;
      if (FirstWrong.empty())
        FirstWrong = O.Wrong;
      std::fprintf(stderr, "perfbench: WRONG VERDICT: %s\n", O.Wrong.c_str());
    }
  }
  double WallS = Elapsed() / 1e9;
  double CpuS = cpuSeconds() - Cpu0 - PausedCpu;
  PeakMb = std::max(PeakMb, peakRssMb());
  while (!A.Trace && SetupTimes.size() != SetupReps) // A run cut short.
    SetupRep();

  R.Correct = Wrong == 0;
  R.Failed = Undecided + Wrong;
  std::vector<double> Sorted = Ms;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Beyond = 0;
  double Tail = percentile(Sorted, C.TailPct, Beyond);
  bool TailOk = Beyond >= MinBeyondTail;

  if (A.Trace) {
    layerMetrics(Libs, Traced, T, UntracedMs, TracedMs, R);
    std::string Path = traceDir() + "/" + kindName(K) + "-seed" +
                       std::to_string(A.Seed) + ".jsonl";
    if (!T.writeJsonl(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  } else {
    if (!TailOk)
      std::fprintf(stderr,
                   "perfbench: %s: only %zu inputs beyond p%g; "
                   "verdict_tail_ms is unreliable (run longer)\n",
                   kindName(K), Beyond, C.TailPct);
    R.Metrics = {
        {"verdicts_per_s", Decided / WallS, "1/s"},
        {"verdict_gmean_ms", geomean(Ms), "ms"},
        {"verdict_tail_ms", Tail, "ms"},
        {"decided_share", double(Decided) / R.Attempted, "ratio"},
        {"cpu_ms_per_verdict", CpuS * 1e3 / std::max<uint64_t>(Decided, 1),
         "ms"},
        {"peak_rss_mb", PeakMb, "MB"},
        {"setup_s", median(SetupTimes), "s"},
    };
  }

  char Buf[512];
  std::snprintf(Buf, sizeof Buf,
                "{\"workload\":\"%s\",\"inputs\":%llu,\"decided\":%llu,"
                "\"undecided\":%llu,\"wrong\":%llu,\"lin_aborts\":%llu,"
                "\"wall_s\":%.3f,\"tail_percentile\":%g,"
                "\"tail_samples_beyond\":%zu,\"tail_ok\":%s,"
                "\"pool\":%zu,\"workers\":%u,\"cpus\":\"%s\","
                "\"max_execs\":%llu",
                kindName(K), (unsigned long long)R.Attempted,
                (unsigned long long)Decided, (unsigned long long)Undecided,
                (unsigned long long)Wrong, (unsigned long long)LinAborts, WallS,
                C.TailPct, Beyond, TailOk ? "true" : "false", Pool.size(),
                C.Workers, Cpus.c_str(),
                (unsigned long long)(K == Kind::Mutants
                                         ? C.Mut.MaxExecutionsPerScenario
                                         : C.MaxExecs));
  R.Detail = Buf;
  if (!FirstWrong.empty())
    R.Detail += ",\"first_wrong\":\"" + jsonEscape(FirstWrong) + "\"";
  R.Detail += "}";
  return R;
}

std::string provenance(const Args &A) {
  char Buf[1024];
  std::snprintf(
      Buf, sizeof Buf,
      "{\"build_type\":\"%s\",\"ndebug\":%s,\"compiler\":\"%s\","
      "\"nproc\":%u,\"seed\":%llu,\"commit\":\"%s\",\"src_digest\":\"%s\","
      "\"sizing_seeds\":\"%s\",\"held_out_seed\":%llu}",
      PERFBENCH_BUILD_TYPE, AssertsOn ? "false" : "true",
      jsonEscape(__VERSION__).c_str(), std::thread::hardware_concurrency(),
      (unsigned long long)A.Seed, jsonEscape(A.Commit).c_str(),
      jsonEscape(A.SrcDigest).c_str(), SizingSeeds,
      (unsigned long long)HeldOutSeed);
  return Buf;
}

void printMetric(const Metric &M) {
  std::printf("  %-28s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.SelfTest)
    return selfTest() ? 1 : 0;
  if (AssertsOn) {
    std::fprintf(stderr, "perfbench: built with assertions enabled (no "
                         "NDEBUG); its numbers are not representative. "
                         "Rebuild RelWithDebInfo or Release.\n");
    return 3;
  }

  std::vector<Kind> Kinds;
  Kind K;
  if (A.Workload == "all")
    Kinds = {Kind::Sweep, Kind::Deep, Kind::Mutants};
  else if (parseKind(A.Workload, K))
    Kinds = {K};
  else
    usage(("unknown workload " + A.Workload).c_str());

  std::printf("provenance %s\n", provenance(A).c_str());
  Result All;
  for (Kind W : Kinds) {
    Result R = runWorkload(A, W);
    std::printf("%s (%s):\n", kindName(W),
                A.Trace ? "traced, per layer" : "end to end");
    for (const Metric &M : R.Metrics)
      printMetric(M);
    std::printf("detail %s\n", R.Detail.c_str());
    All.Correct &= R.Correct;
    All.Attempted += R.Attempted;
    All.Failed += R.Failed;
    for (Metric &M : R.Metrics) {
      if (Kinds.size() > 1)
        M.Name = std::string(kindName(W)) + "." + M.Name;
      All.Metrics.push_back(M);
    }
  }

  std::string Out = "{\"correct\": ";
  Out += All.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(All.Attempted);
  Out += ", \"failed\": " + std::to_string(All.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != All.Metrics.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", All.Metrics[I].Name.c_str(),
                  All.Metrics[I].Value, All.Metrics[I].Unit);
    Out += Buf;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return All.Correct ? 0 : 1;
}
