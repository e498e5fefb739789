//===-- sim/Workload.h - Bounded programs as first-class values -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Workload bundles everything needed to model-check a bounded concurrent
/// program — the setup closure that allocates state and starts threads, the
/// per-execution property check, and the exploration options — into one
/// re-runnable value. This makes three things first-class:
///
///  - exploreSerial(W) / explore(W): run the workload to completion on one
///    worker or on Options::Workers workers. Both are thin wrappers over
///    exploreResumable (ParallelExplorer.h), the one exploration loop, and
///    so is the closure form explore(Opts, Setup, Check);
///  - replay(W, Decisions): deterministically re-execute ONE decision
///    sequence — the counterexample-reproduction entry point. Feed it
///    Summary::firstViolationDecisions() or Explorer::currentDecisions();
///  - per-worker instantiation: a Workload built from a BodyFactory gives
///    every parallel worker its own Setup/Check closures (and thus its own
///    captured state), so existing single-threaded harness code parallelizes
///    without locking.
///
/// The Check closure returns true when the execution satisfies the property;
/// false increments Summary::Violations and records the decision trace.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_WORKLOAD_H
#define COMPASS_SIM_WORKLOAD_H

#include "sim/Explorer.h"

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace compass::sim {

/// A bounded concurrent program plus exploration options; see file comment.
class Workload {
public:
  using SetupFn = std::function<void(rmc::Machine &, Scheduler &)>;
  /// Returns true when the execution satisfies the property.
  using CheckFn =
      std::function<bool(rmc::Machine &, Scheduler &, Scheduler::RunResult)>;

  /// Saves the body's non-machine state (e.g. a spec monitor) into the
  /// engine-owned slot, reusing its storage across saves. Called when the
  /// copy-on-write engine snapshots a decision boundary.
  using CowSaveFn = std::function<void(std::shared_ptr<void> &)>;
  /// Restores the state saved by CowSaveFn after a fast-forward.
  using CowRestoreFn = std::function<void(const std::shared_ptr<void> &)>;

  /// One instantiation of the program body. Parallel workers each hold
  /// their own Body, so closures built by a factory may freely mutate the
  /// state they capture.
  ///
  /// Copy-on-write eligibility (sim/Engine.h): a body that keeps NO state
  /// across scheduler steps outside (a) the machine, (b) coroutine locals
  /// recomputed from journaled operation results, may set CowSafe. A body
  /// with extra cross-step state (the harness's spec monitor) instead
  /// provides CowSave/CowRestore; the engine then snapshots/restores that
  /// state at decision boundaries. Bodies with neither run under the
  /// classic root-replay engine.
  struct Body {
    SetupFn Setup;
    CheckFn Check; ///< May be empty: every execution passes.
    bool CowSafe = false;
    CowSaveFn CowSave;
    CowRestoreFn CowRestore;
    /// Allows fast-forward to skip re-running steps of threads already
    /// finished at the snapshot boundary (their coroutine frames are never
    /// resumed in the subtree). Sound only when no live code reads a
    /// finished thread's client-side effects outside the machine, the
    /// monitor, and state covered by CowSave/CowRestore — e.g. the EBR
    /// wrapper's ghost retire bins (sim/Ebr.h) live in the shared library
    /// object and are recomputed by thread code, so EBR workloads must
    /// leave this off.
    bool CowSkipFinished = false;

    Body() = default;
    Body(SetupFn Setup, CheckFn Check = nullptr)
        : Setup(std::move(Setup)), Check(std::move(Check)) {}
  };

  /// Produces a fresh Body; invoked once per worker.
  using BodyFactory = std::function<Body()>;

  /// A workload with a single shared body. Safe for serial exploration and
  /// replay; for parallel exploration the closures must be thread-safe
  /// (prefer the BodyFactory constructor).
  Workload(Explorer::Options Opts, Body B)
      : Opts(Opts), Shared(std::move(B)) {}

  Workload(Explorer::Options Opts, SetupFn Setup, CheckFn Check = nullptr)
      : Workload(Opts, Body{std::move(Setup), std::move(Check)}) {}

  /// A workload whose body is instantiated per worker.
  Workload(Explorer::Options Opts, BodyFactory F)
      : Opts(Opts), Factory(std::move(F)) {}

  Explorer::Options &options() { return Opts; }
  const Explorer::Options &options() const { return Opts; }

  /// Instantiates a body for one worker (or for serial/replay use).
  Body makeBody() const { return Factory ? Factory() : Shared; }

  bool hasFactory() const { return static_cast<bool>(Factory); }

private:
  Explorer::Options Opts;
  Body Shared;
  BodyFactory Factory;
};

/// Outcome of replaying one decision sequence.
struct ReplayResult {
  Scheduler::RunResult Run = Scheduler::RunResult::Done;
  bool CheckOk = true; ///< Result of the workload's Check (true if none).
  uint64_t Steps = 0;  ///< Scheduler steps taken.
  bool Diverged = false; ///< The program requested decisions beyond the
                         ///< supplied trace (nondeterministic replay).
};

namespace detail {

/// ChoiceSource that replays a fixed decision sequence. Decisions past the
/// end of the trace fall back to alternative 0 and set the divergence flag.
/// Every decision actually taken (including fallbacks and clamps) is
/// recorded, so callers can canonicalize a stale or truncated trace into
/// one that replays divergence-free.
class ReplayChoice final : public ChoiceSource {
public:
  explicit ReplayChoice(std::vector<unsigned> Decisions)
      : Decisions(std::move(Decisions)) {}

  unsigned choose(unsigned Count, const char *) override {
    unsigned Pick = 0;
    if (Pos >= Decisions.size()) {
      DivergedPastEnd = true;
    } else {
      Pick = Decisions[Pos++];
      if (Pick >= Count) {
        // The trace does not fit this program (arity shrank); clamp rather
        // than crash so replays of slightly stale traces still run.
        DivergedPastEnd = true;
        Pick = Count - 1;
      }
    }
    Recorded.push_back(Pick);
    return Pick;
  }

  bool diverged() const { return DivergedPastEnd; }

  /// The decisions actually taken during the run, in order.
  const std::vector<unsigned> &recorded() const { return Recorded; }

private:
  std::vector<unsigned> Decisions;
  std::vector<unsigned> Recorded;
  size_t Pos = 0;
  bool DivergedPastEnd = false;
};

} // namespace detail

/// Deterministically re-executes the single decision sequence \p Decisions
/// of \p W — the counterexample reproduction entry point. The sequence is
/// the plain-index form produced by Explorer::currentDecisions() or
/// Summary::firstViolationDecisions(). When \p ExecutedOut is non-null it
/// receives the decisions actually taken (fallbacks/clamps included), a
/// canonical trace that replays the same execution divergence-free.
inline ReplayResult replay(const Workload &W,
                           const std::vector<unsigned> &Decisions,
                           std::vector<unsigned> *ExecutedOut = nullptr) {
  detail::ReplayChoice Choice(Decisions);
  Workload::Body Body = W.makeBody();
  rmc::Machine M(Choice);
  Scheduler S(M, Choice);
  S.setPreemptionBound(W.options().PreemptionBound);
  Body.Setup(M, S);
  ReplayResult Out;
  Out.Run = S.run(W.options().MaxStepsPerExec);
  Out.Steps = S.steps();
  if (Body.Check)
    Out.CheckOk = Body.Check(M, S, Out.Run);
  Out.Diverged = Choice.diverged();
  if (ExecutedOut)
    *ExecutedOut = Choice.recorded();
  return Out;
}

/// Renders \p Decisions as a copy-pasteable C++ call — paste it next to the
/// workload definition to re-execute a reported counterexample:
///   sim::replay(W, {0,1,2});
inline std::string formatReplayCall(const std::vector<unsigned> &Decisions,
                                    const char *WorkloadName = "W") {
  std::string Out = "sim::replay(";
  Out += WorkloadName;
  Out += ", {";
  for (size_t I = 0; I != Decisions.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Decisions[I]);
  }
  Out += "});";
  return Out;
}

/// Runs \p W to completion on one worker — the calling thread — whatever
/// Options::Workers says, re-establishing state between executions through
/// the copy-on-write engine when the workload is eligible (see Body and
/// sim/Engine.h). Defined in ParallelExplorer.cpp.
Explorer::Summary exploreSerial(const Workload &W);

/// Runs \p W on Options::Workers workers (one in random mode). Defined in
/// ParallelExplorer.cpp.
Explorer::Summary explore(const Workload &W);

/// Closure form: explores a one-worker Workload whose body runs \p Setup
/// then the scheduler for every execution, invoking \p Check afterwards.
/// \p Setup receives the fresh machine and scheduler and must allocate
/// state and start threads; \p Check receives them after the run together
/// with the run result and may return void (informational; the execution
/// passes) or bool (false = property violation, counted in
/// Summary::Violations with the trace captured). The body is neither
/// CowSafe nor CowSave, so every execution runs from the root.
///
/// Always one worker: the closures may share state without locking.
template <typename SetupT, typename CheckT>
Explorer::Summary explore(Explorer::Options Opts, SetupT Setup,
                          CheckT Check) {
  Workload::CheckFn CheckBool;
  if constexpr (std::is_same_v<std::invoke_result_t<CheckT &, rmc::Machine &,
                                                    Scheduler &,
                                                    Scheduler::RunResult>,
                               bool>)
    CheckBool = std::move(Check);
  else
    CheckBool = [Check = std::move(Check)](rmc::Machine &M, Scheduler &S,
                                           Scheduler::RunResult R) mutable {
      Check(M, S, R);
      return true;
    };
  return exploreSerial(
      Workload(Opts, Workload::Body(std::move(Setup), std::move(CheckBool))));
}

} // namespace compass::sim

#endif // COMPASS_SIM_WORKLOAD_H
