//===-- sim/ParallelExplorer.h - The exploration loop ----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exploration loop behind every driver: exploreResumable runs N
/// workers, each owning one Machine/Scheduler arena, one Explorer that it
/// re-seeds per subtree (and thus a private DecisionTree), and a stealable
/// deque of unexplored subtree prefixes. exploreSerial and explore(W) are
/// thin wrappers over it. The calling thread is worker 0 and only N-1
/// threads are started, so a one-worker exploration starts none.
///
/// Protocol: worker 0 starts with the root (empty) prefix in hand — or,
/// when resuming from a checkpoint (sim/Checkpoint.h), the deques are
/// seeded round-robin with the snapshot's frontier of pinned prefixes. A
/// worker takes from the back of its own deque (deepest donation first),
/// steals from the front of another's when its own is empty (shallowest =
/// largest subtree), seeds its Explorer with the prefix, and DFS-enumerates
/// that subtree under the copy-on-write engine (sim/Engine.h). Donation is
/// proactive, batched, and gated: after an execution, a worker whose tree
/// still has a healthy open frontier refills the pool with a batch of its
/// shallowest untried alternatives (DecisionTree::split) whenever the total
/// queued work drops below the low-water mark. Termination is unit-counted:
/// the worker that retires the last queued-or-running prefix ends the
/// exploration.
///
/// Determinism guarantee: the donated prefixes partition the decision tree,
/// every decision sequence is enumerated by exactly one worker, and every
/// Summary field in the deterministic core is a sum / max / AND / lex-min
/// over executions — so the aggregated Summary core is **bit-identical for
/// any worker count**, and likewise across any interrupt/resume
/// segmentation (provided the run is not truncated by StopOnViolation or
/// the execution budget).
///
/// StopOnViolation guarantee: the first violation surfaced is the
/// lexicographically least violating decision sequence — exactly the one
/// one-worker DFS finds first, identical at any worker count. Workers share
/// the best (lex-min) violation found so far; a worker abandons its subtree
/// at its own first violation (DFS yields each subtree's least first) and
/// the search continues only where a lex-smaller violation could still
/// hide (prefixes and pending paths that are lex-below the current best).
/// Reproduce the result with replay(W, Summary::firstViolationDecisions()).
/// The remaining counters are still truncation-dependent.
///
/// The global MaxExecutions budget is enforced with a shared atomic ticket
/// counter, so the *number* of executions is the same at any worker count
/// when the budget truncates the search (the particular executions explored
/// then depend on scheduling, and the remaining counters may differ).
///
/// Workers poll ExploreControl between executions. An external stop flag
/// (signal handlers), a wall-clock deadline, and an execution-count
/// tripwire all make the workers finish their current execution, convert
/// every unexplored remainder into pinned prefixes
/// (Explorer::drainFrontier), and hand back an ExplorationSnapshot that a
/// later call — at any worker count — resumes to the bit-identical final
/// summary core. Heartbeats are emitted by whichever working worker finds
/// one due, one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_PARALLELEXPLORER_H
#define COMPASS_SIM_PARALLELEXPLORER_H

#include "sim/Checkpoint.h"
#include "sim/Workload.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace compass::sim {

/// A point-in-time progress sample of a running exploration, delivered to
/// ExploreControl::OnHeartbeat by whichever worker finds one due. Calls
/// never overlap, and Executions never decreases from one to the next.
/// Values are sampled with relaxed loads — approximate by design; only the
/// final Summary core is exact.
struct ExploreHeartbeat {
  double WallSeconds = 0;  ///< Wall time since this segment started.
  uint64_t Executions = 0; ///< Total executions incl. any resumed base.
  double ExecsPerSec = 0;  ///< Executions/s over this segment.
  uint64_t QueueSize = 0;  ///< Shared work-queue length right now.
  unsigned BusyWorkers = 0;
  unsigned Workers = 0;
  uint64_t Donations = 0; ///< Prefixes donated between workers so far.

  /// Per-worker progress counters.
  struct WorkerSample {
    uint64_t Execs = 0;    ///< Executions this worker performed.
    uint64_t Donated = 0;  ///< Prefixes this worker donated.
    uint64_t Frontier = 0; ///< Worker's live DFS frontier size.
    uint64_t Depth = 0;    ///< Worker's current decision-path depth.
  };
  std::vector<WorkerSample> PerWorker;
};

/// External control over a resumable exploration. All fields optional; a
/// default-constructed ExploreControl reproduces plain run() behavior.
struct ExploreControl {
  /// Cooperative interrupt, typically set from a SIGINT/SIGTERM handler:
  /// polled by the workers between executions; once true, workers finish
  /// their in-flight execution and drain into the snapshot.
  const std::atomic<bool> *StopRequested = nullptr;

  /// >0: interrupt once this much wall time (seconds) has elapsed in this
  /// segment (--time-budget / time-based checkpoint cadence).
  double DeadlineSec = 0;

  /// >0: interrupt once the global execution count (including a resumed
  /// snapshot's executed base) reaches this value. The trip point is
  /// approximate — in-flight executions complete — but the snapshot is
  /// exact regardless of where the interrupt lands.
  uint64_t InterruptAtExecs = 0;

  /// >0 with OnHeartbeat set: emit a heartbeat every interval (seconds).
  double HeartbeatIntervalSec = 0;
  std::function<void(const ExploreHeartbeat &)> OnHeartbeat;
};

/// Result of one (possibly interrupted) exploration segment.
struct ExploreResult {
  /// Aggregated summary. When Interrupted, this is the deterministic core
  /// of the executed share (== Snapshot.Partial); when not, it is the
  /// final summary, bit-identical to an uninterrupted run's core.
  Explorer::Summary Sum;

  /// True when the segment was cut short by ExploreControl and unexplored
  /// work remains in Snapshot. False means the exploration finished (the
  /// snapshot is empty) even if an interrupt raced with completion.
  bool Interrupted = false;

  /// The resumable remainder; see sim/Checkpoint.h. Empty unless
  /// Interrupted.
  ExplorationSnapshot Snapshot;
};

/// Explores \p W (exhaustive mode) with W.options().Workers workers, the
/// calling thread being worker 0, under cooperative interruption. Pass
/// \p Resume to continue a previous segment's snapshot instead of starting
/// at the root; the final merged summary core is bit-identical to an
/// uninterrupted run at any worker count and any interrupt/resume
/// segmentation. Random-mode workloads run on one worker and ignore \p Ctl
/// / \p Resume (never interrupted). exploreSerial and explore(W)
/// (Workload.h) are wrappers over this call.
ExploreResult exploreResumable(const Workload &W, const ExploreControl &Ctl,
                               const ExplorationSnapshot *Resume = nullptr);

} // namespace compass::sim

#endif // COMPASS_SIM_PARALLELEXPLORER_H
