//===-- sim/ParallelExplorer.cpp - The exploration loop -------------------===//

#include "sim/ParallelExplorer.h"

#include "sim/Engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace compass;
using namespace compass::sim;

namespace {

/// True iff the decision path \p Path is lexicographically below the full
/// sequence \p Best (proper prefixes count as below). A prefix that is NOT
/// below Best cannot contain a violating sequence smaller than Best: every
/// extension of it is lex >= Best.
bool pathLexBelow(const std::vector<DecisionTree::Decision> &Path,
                  const std::vector<unsigned> &Best) {
  size_t N = std::min(Path.size(), Best.size());
  for (size_t I = 0; I != N; ++I)
    if (Path[I].Chosen != Best[I])
      return Path[I].Chosen < Best[I];
  return Path.size() < Best.size();
}

bool seqLexLess(const std::vector<unsigned> &A,
                const std::vector<unsigned> &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(),
                                      B.end());
}

/// Per-worker progress counters, sampled for heartbeats. Written by the
/// owning worker only, and only while heartbeats are on; all accesses
/// relaxed — these are telemetry, not synchronization.
struct WorkerStats {
  std::atomic<uint64_t> Execs{0};
  std::atomic<uint64_t> Donated{0};
  std::atomic<uint64_t> Frontier{0};
  std::atomic<uint64_t> Depth{0};
};

/// What one worker accumulates over its subtrees. Cache-line aligned: the
/// counters are written by the owner while other workers sample them.
struct alignas(64) WorkerState {
  Explorer::Summary Sum; ///< Core of every subtree explored, plus steps.
  uint64_t PeakFrontier = 0;
  WorkerStats St;

  WorkerState() { Sum.Exhausted = true; } // AND-folded over subtrees
};

/// One worker's stealable prefix deque. The owner pushes donation batches
/// to the back and pops from the back (deepest donations first — smallest
/// subtrees, warmest caches); thieves pop from the front, where the
/// shallowest — and hence largest — subtrees sit. A plain mutex per deque
/// is enough: all touches are batched and the common case is uncontended.
struct alignas(64) WorkerDeque {
  std::mutex Mu;
  std::deque<DecisionTree::Prefix> Dq;
};

/// State shared by all workers of one exploration.
///
/// Work distribution is decentralized: each worker owns a deque seeded /
/// refilled by its own donations, and steals from other deques only when
/// its own is empty. Termination is unit-counted: Outstanding tracks
/// prefixes that are queued or in progress; the worker that retires the
/// last unit flips Done. A lone worker has nobody to wait for or wake, so
/// it never touches Mu: it stops when its deque is empty.
struct SharedState {
  const unsigned N; ///< Worker count.
  std::mutex Mu;    ///< Guards Done and the sleep/wake protocol only.
  std::condition_variable Cv;
  bool Done = false;

  /// Empty when nothing is ever queued: one worker, no resumed frontier.
  std::vector<WorkerDeque> Deques;
  std::atomic<uint64_t> Outstanding{0}; ///< Queued + in-progress prefixes.
  std::atomic<uint64_t> QueuedTotal{0}; ///< Prefixes sitting in deques.
  std::atomic<unsigned> Busy{0};        ///< Workers holding a subtree.
  std::atomic<uint64_t> PeakQueue{0};
  std::atomic<uint64_t> Donations{0};

  /// Global execution budget (Options::MaxExecutions), claimed one ticket
  /// per execution so every worker count performs exactly as many
  /// executions. Seeded with the resumed snapshot's executed base so the
  /// budget (and InterruptAtExecs) stay global across segments.
  std::atomic<uint64_t> Tickets{0};

  /// Cooperative interrupt: workers finish their in-flight execution,
  /// drain their tree's unexplored remainder into Drained, and exit.
  std::atomic<bool> Interrupt{false};

  // -- StopOnViolation: shared lex-min violation -----------------------
  /// Cheap pre-check before taking BestMu; set once any violation exists.
  std::atomic<bool> HaveViolation{false};
  std::mutex BestMu;
  std::vector<unsigned> Best; // lex-min violating sequence so far

  // -- Checkpoint drain -------------------------------------------------
  std::mutex DrainMu;
  std::vector<DecisionTree::Prefix> Drained;

  SharedState(unsigned Workers, bool Queues)
      : N(Workers), Deques(Queues ? Workers : 0) {}

  /// Lowers the shared best violation to \p Seq if it is lex-smaller.
  void offerViolation(std::vector<unsigned> Seq) {
    std::lock_guard<std::mutex> L(BestMu);
    if (!HaveViolation.load(std::memory_order_relaxed) ||
        seqLexLess(Seq, Best))
      Best = std::move(Seq);
    HaveViolation.store(true, std::memory_order_relaxed);
  }

  /// True while work whose decision path starts with \p Path could still
  /// contain a violation lex-smaller than the current best (or no
  /// violation exists yet). Callers pre-check HaveViolation.
  bool mayImprove(const std::vector<DecisionTree::Decision> &Path) {
    std::lock_guard<std::mutex> L(BestMu);
    return pathLexBelow(Path, Best);
  }

  void addDrained(std::vector<DecisionTree::Prefix> Prefixes) {
    if (Prefixes.empty())
      return;
    std::lock_guard<std::mutex> L(DrainMu);
    for (DecisionTree::Prefix &P : Prefixes)
      Drained.push_back(std::move(P));
  }

  /// Wakes every sleeping worker. The notify is taken under Mu, which
  /// makes the sleep/wake race-free: a would-be sleeper re-checks its
  /// condition under Mu before waiting, so it either sees the change or
  /// receives this notify.
  void wakeAll() {
    if (N == 1)
      return;
    std::lock_guard<std::mutex> L(Mu);
    Cv.notify_all();
  }

  void raiseInterrupt() {
    if (!Interrupt.exchange(true, std::memory_order_relaxed))
      wakeAll();
  }

  /// Appends \p Prefixes to worker \p Wid's deque and wakes sleepers.
  void pushBatch(unsigned Wid, std::vector<DecisionTree::Prefix> Prefixes,
                 bool CountAsDonation) {
    if (Prefixes.empty())
      return;
    uint64_t K = Prefixes.size();
    Outstanding.fetch_add(K, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(Deques[Wid].Mu);
      for (DecisionTree::Prefix &P : Prefixes)
        Deques[Wid].Dq.push_back(std::move(P));
    }
    uint64_t Q = QueuedTotal.fetch_add(K, std::memory_order_relaxed) + K;
    uint64_t Pk = PeakQueue.load(std::memory_order_relaxed);
    while (Q > Pk &&
           !PeakQueue.compare_exchange_weak(Pk, Q,
                                            std::memory_order_relaxed))
      ;
    if (CountAsDonation)
      Donations.fetch_add(K, std::memory_order_relaxed);
    wakeAll();
  }

  /// Retires one work unit (finished subtree or discarded prefix); the
  /// last retirement terminates the exploration.
  void retireUnit() {
    if (Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1 && N > 1) {
      std::lock_guard<std::mutex> L(Mu);
      Done = true;
      Cv.notify_all();
    }
  }

  enum class Take { Got, Retry, None };

  /// One scan over the deques: the worker's own back first (LIFO keeps it
  /// on the deepest, cache-warmest donation), then other workers' fronts
  /// (FIFO steals the shallowest = largest subtree). Lex-dead prefixes
  /// are retired on the spot.
  Take tryTakeOne(unsigned Wid, DecisionTree::Prefix &Out,
                  bool StopOnViolation) {
    unsigned NQ = static_cast<unsigned>(Deques.size());
    for (unsigned K = 0; K != NQ; ++K) {
      unsigned V = (Wid + K) % NQ;
      WorkerDeque &D = Deques[V];
      {
        std::lock_guard<std::mutex> L(D.Mu);
        if (D.Dq.empty())
          continue;
        if (V == Wid) {
          Out = std::move(D.Dq.back());
          D.Dq.pop_back();
        } else {
          Out = std::move(D.Dq.front());
          D.Dq.pop_front();
        }
      }
      QueuedTotal.fetch_sub(1, std::memory_order_relaxed);
      if (StopOnViolation &&
          HaveViolation.load(std::memory_order_relaxed) &&
          !mayImprove(Out.Path)) {
        retireUnit(); // cannot contain a violation below the best: dead
        return Take::Retry;
      }
      Busy.fetch_add(1, std::memory_order_relaxed);
      return Take::Got;
    }
    return Take::None;
  }

  /// Blocks until a prefix is available (true) or the exploration is over
  /// (false) — either all units retired or an interrupt was raised.
  bool acquire(unsigned Wid, DecisionTree::Prefix &Out,
               bool StopOnViolation) {
    for (;;) {
      if (!Interrupt.load(std::memory_order_relaxed)) {
        Take T = tryTakeOne(Wid, Out, StopOnViolation);
        if (T == Take::Got)
          return true;
        if (T == Take::Retry)
          continue;
      }
      if (N == 1)
        return false; // nobody else can queue work or finish it
      std::unique_lock<std::mutex> L(Mu);
      if (Done)
        return false;
      if (Interrupt.load(std::memory_order_relaxed)) {
        // Leave the queued prefixes in place: they are collected into the
        // snapshot frontier after the workers exit.
        Done = true;
        Cv.notify_all();
        return false;
      }
      if (QueuedTotal.load(std::memory_order_relaxed) > 0)
        continue; // a batch landed between the scan and the lock
      Cv.wait(L);
    }
  }

  /// Marks the worker's current subtree finished and retires its unit.
  void finishSubtree() {
    Busy.fetch_sub(1, std::memory_order_relaxed);
    retireUnit();
  }
};

double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

/// The one exploration loop: \p N workers, worker 0 on the calling thread.
ExploreResult runWorkers(const Workload &W, unsigned N,
                         const ExploreControl &Ctl,
                         const ExplorationSnapshot *Resume) {
  const Explorer::Options &Opts = W.options();
  const auto Start = std::chrono::steady_clock::now();
  const bool Resuming = Resume && !Resume->Frontier.empty();

  SharedState Sh(N, /*Queues=*/N > 1 || Resuming);
  if (Resuming) {
    // Seed the deques round-robin with the snapshot's pinned subtrees.
    std::vector<std::vector<DecisionTree::Prefix>> Seed(N);
    for (size_t I = 0; I != Resume->Frontier.size(); ++I)
      Seed[I % N].push_back(Resume->Frontier[I]);
    for (unsigned I = 0; I != N; ++I)
      Sh.pushBatch(I, std::move(Seed[I]), /*CountAsDonation=*/false);
    Sh.Tickets.store(Resume->Partial.Executions, std::memory_order_relaxed);
  } else {
    // Worker 0 holds the root subtree from the start; nothing is queued.
    Sh.Outstanding.store(1, std::memory_order_relaxed);
    Sh.Busy.store(1, std::memory_order_relaxed);
  }
  if (Resume && Resume->Partial.HasViolation)
    Sh.offerViolation(Resume->Partial.firstViolationDecisions());

  // Worker 0's state lives here and the others' in Rest, so a one-worker
  // exploration allocates nothing for them.
  WorkerState W0;
  std::vector<WorkerState> Rest(N - 1);
  auto StateOf = [&](unsigned I) -> WorkerState & {
    return I == 0 ? W0 : Rest[I - 1];
  };

  // Random sampling has no MaxExecutions cap (the explorer stops at
  // RandomRuns); the workers' explorers leave the cap to the tickets.
  const uint64_t Budget = Opts.ExploreMode == Explorer::Mode::Random
                              ? ~0ull
                              : Opts.MaxExecutions;
  Explorer::Options WOpts = Opts;
  WOpts.MaxExecutions = ~0ull;

  // External controls, polled by each worker between executions only when
  // set; the clock is read only for a deadline or heartbeats.
  const bool Heartbeats =
      Ctl.HeartbeatIntervalSec > 0 && static_cast<bool>(Ctl.OnHeartbeat);
  const bool Timed = Ctl.DeadlineSec > 0 || Heartbeats;
  const bool Poll = Timed || Ctl.StopRequested || Ctl.InterruptAtExecs > 0;
  // Held while a heartbeat is built and delivered, so callbacks never
  // overlap; a worker that finds it taken skips instead of waiting.
  std::mutex HbMu;
  std::atomic<double> NextHb{Ctl.HeartbeatIntervalSec};

  auto EmitHeartbeat = [&](double Wall) {
    std::unique_lock<std::mutex> L(HbMu, std::try_to_lock);
    if (!L.owns_lock() || Wall < NextHb.load(std::memory_order_relaxed))
      return; // another worker is emitting, or just did
    NextHb.store(Wall + Ctl.HeartbeatIntervalSec, std::memory_order_relaxed);
    ExploreHeartbeat Hb;
    Hb.WallSeconds = Wall;
    Hb.Executions = std::min<uint64_t>(
        Sh.Tickets.load(std::memory_order_relaxed), Opts.MaxExecutions);
    Hb.ExecsPerSec = Wall > 0 ? Hb.Executions / Wall : 0.0;
    Hb.QueueSize = Sh.QueuedTotal.load(std::memory_order_relaxed);
    Hb.BusyWorkers = Sh.Busy.load(std::memory_order_relaxed);
    Hb.Workers = N;
    Hb.Donations = Sh.Donations.load(std::memory_order_relaxed);
    Hb.PerWorker.resize(N);
    for (unsigned I = 0; I != N; ++I) {
      const WorkerStats &St = StateOf(I).St;
      Hb.PerWorker[I].Execs = St.Execs.load(std::memory_order_relaxed);
      Hb.PerWorker[I].Donated = St.Donated.load(std::memory_order_relaxed);
      Hb.PerWorker[I].Frontier = St.Frontier.load(std::memory_order_relaxed);
      Hb.PerWorker[I].Depth = St.Depth.load(std::memory_order_relaxed);
    }
    Ctl.OnHeartbeat(Hb);
  };

  auto PollControls = [&] {
    if (Sh.Interrupt.load(std::memory_order_relaxed))
      return;
    bool Trip = (Ctl.InterruptAtExecs > 0 &&
                 Sh.Tickets.load(std::memory_order_relaxed) >=
                     Ctl.InterruptAtExecs) ||
                (Ctl.StopRequested &&
                 Ctl.StopRequested->load(std::memory_order_relaxed));
    if (Timed) {
      const double Wall = secondsSince(Start);
      Trip = Trip || (Ctl.DeadlineSec > 0 && Wall >= Ctl.DeadlineSec);
      if (Heartbeats && Wall >= NextHb.load(std::memory_order_relaxed))
        EmitHeartbeat(Wall);
    }
    if (Trip)
      Sh.raiseInterrupt();
  };

  // Donation policy: proactive, batched, and gated. A worker refills the
  // shared pool after an execution only when the pool is below the
  // low-water mark (fewer queued prefixes than idle mouths to feed) AND
  // its own tree still has enough open alternatives that sharing leaves
  // the local DFS with real work. DecisionTree::split donates from the
  // shallowest open depth, so each donated prefix is a maximal subtree.
  const uint64_t DonateLowWater = N;        // pool "starved" below this
  const size_t DonateBatch = 2 * N;         // prefixes per refill
  const uint64_t DonateMinFrontier = 2 * DonateBatch; // size threshold

  auto WorkerMain = [&](unsigned Wid) {
    WorkerState &Me = StateOf(Wid);
    Workload::Body Body = W.makeBody();

    // One persistent simulation arena per worker: the machine and the
    // scheduler bind to the worker's one Explorer, which is re-seeded per
    // subtree by assignment; reset() rewinds their watermarks without
    // freeing, so steady-state allocation happens once per worker, not
    // once per donated prefix. Constructed unseeded, it is already the
    // root subtree's explorer, which worker 0 starts on.
    Explorer Ex(WOpts);
    rmc::Machine M(Ex);
    Scheduler S(M, Ex);
    S.setPreemptionBound(Opts.PreemptionBound);

    DecisionTree::Prefix Prefix;
    bool HoldsRoot = Wid == 0 && !Resuming;
    while (HoldsRoot || Sh.acquire(Wid, Prefix, Opts.StopOnViolation)) {
      if (!HoldsRoot)
        Ex = Explorer(WOpts, std::move(Prefix));
      HoldsRoot = false;
      S.setReduction(Ex.reduction());
      Engine Eng(Ex, M, S, Body);
      for (;;) {
        if (Poll)
          PollControls();
        if (Sh.Interrupt.load(std::memory_order_relaxed)) {
          // Cooperative checkpoint: convert this subtree's unexplored
          // remainder into pinned prefixes for the snapshot frontier.
          // The executed share stays in Ex's summary (Exhausted set).
          Sh.addDrained(Ex.drainFrontier());
          break;
        }
        if (Opts.StopOnViolation &&
            Sh.HaveViolation.load(std::memory_order_relaxed) &&
            !Sh.mayImprove(Ex.currentTrace()))
          break; // pending path lex >= best violation: nothing to gain
        if (!Ex.hasWork())
          break;
        // Claim a budget ticket before committing to the execution so the
        // global execution count is the same at every worker count.
        if (Sh.Tickets.fetch_add(1, std::memory_order_relaxed) >= Budget)
          break;
        bool Began = Ex.beginExecution();
        (void)Began;
        assert(Began && "hasWork() promised an execution");

        Engine::ExecResult R = Eng.runOne();
        Ex.recordCheck(R.CheckOk);
        Ex.endExecution(R.Run);
        if (Heartbeats) {
          Me.St.Execs.fetch_add(1, std::memory_order_relaxed);
          Me.St.Frontier.store(Ex.frontierSize(), std::memory_order_relaxed);
          Me.St.Depth.store(Ex.currentDepth(), std::memory_order_relaxed);
        }
        if (!R.CheckOk && Opts.StopOnViolation) {
          // DFS yields each subtree's lex-least violation first, so this
          // subtree is finished; publish the find and let the search
          // continue only where a lex-smaller violation could hide. A
          // lone worker with no queue has nobody to tell.
          if (!Sh.Deques.empty())
            Sh.offerViolation(Ex.summary().firstViolationDecisions());
          break;
        }

        // Work sharing (see the donation-policy comment above).
        if (N > 1 &&
            Sh.QueuedTotal.load(std::memory_order_relaxed) <
                DonateLowWater &&
            Ex.frontierSize() >= DonateMinFrontier && Ex.splittable()) {
          std::vector<DecisionTree::Prefix> Don = Ex.split(DonateBatch);
          Me.St.Donated.fetch_add(Don.size(), std::memory_order_relaxed);
          Sh.pushBatch(Wid, std::move(Don), /*CountAsDonation=*/true);
        }
      }
      const Explorer::Summary &Sub = Ex.summary();
      Me.PeakFrontier = std::max(Me.PeakFrontier, Sub.Perf.PeakFrontier);
      Me.Sum.mergeCore(Sub); // AND-folds the subtree's Exhausted bit
      Me.Sum.Perf.StepsExecuted += Eng.stepsExecuted();
      Me.Sum.Perf.StepsLogical += Eng.stepsLogical();
      Me.Sum.Perf.CowResumes += Eng.cowResumes();
      Me.Sum.Perf.RootRuns += Eng.rootRuns();
      Sh.finishSubtree();
    }
  };

  // The simulator never throws (support/Error.h), so the joins below are
  // always reached.
  std::vector<std::thread> Threads;
  Threads.reserve(N - 1);
  for (unsigned I = 1; I != N; ++I)
    Threads.emplace_back(WorkerMain, I);
  WorkerMain(0);
  for (std::thread &Th : Threads)
    Th.join();

  // Worker 0's summary becomes the aggregate. Every core field merges
  // commutatively, so the merge order is immaterial.
  Explorer::Summary &Agg = W0.Sum;
  if (Resume)
    Agg.mergeCore(Resume->Partial);
  uint64_t PeakFrontier = W0.PeakFrontier;
  for (const WorkerState &Ws : Rest) {
    Agg.mergeCore(Ws.Sum);
    Agg.Perf.StepsExecuted += Ws.Sum.Perf.StepsExecuted;
    Agg.Perf.StepsLogical += Ws.Sum.Perf.StepsLogical;
    Agg.Perf.CowResumes += Ws.Sum.Perf.CowResumes;
    Agg.Perf.RootRuns += Ws.Sum.Perf.RootRuns;
    PeakFrontier = std::max(PeakFrontier, Ws.PeakFrontier);
  }

  const double Wall = secondsSince(Start);
  Agg.Perf.WallSeconds = Wall;
  Agg.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Agg.Executions) / Wall : 0.0;
  Agg.Perf.PeakFrontier = PeakFrontier;
  Agg.Perf.PeakQueue = Sh.PeakQueue.load(std::memory_order_relaxed);
  Agg.Perf.Donations = Sh.Donations.load(std::memory_order_relaxed);
  Agg.Perf.Workers = N;

  ExploreResult Res;
  if (Sh.Interrupt.load(std::memory_order_relaxed)) {
    // Frontier = every worker's drained remainder plus the prefixes still
    // sitting in the deques. Empty means the interrupt raced with natural
    // completion: the run actually finished.
    Res.Snapshot.Frontier = std::move(Sh.Drained);
    for (WorkerDeque &D : Sh.Deques)
      for (DecisionTree::Prefix &P : D.Dq)
        Res.Snapshot.Frontier.push_back(std::move(P));
    Res.Interrupted = !Res.Snapshot.Frontier.empty();
    if (Res.Interrupted)
      Res.Snapshot.Partial = Agg;
    else
      Res.Snapshot = ExplorationSnapshot{};
  }
  Res.Sum = std::move(Agg);
  return Res;
}

} // namespace

ExploreResult compass::sim::exploreResumable(const Workload &W,
                                             const ExploreControl &Ctl,
                                             const ExplorationSnapshot *Resume) {
  // Sampling has no tree to partition or checkpoint.
  if (W.options().ExploreMode == Explorer::Mode::Random)
    return runWorkers(W, 1, ExploreControl{}, nullptr);
  return runWorkers(W, std::max(1u, W.options().Workers), Ctl, Resume);
}

Explorer::Summary compass::sim::exploreSerial(const Workload &W) {
  return runWorkers(W, 1, ExploreControl{}, nullptr).Sum;
}

Explorer::Summary compass::sim::explore(const Workload &W) {
  return exploreResumable(W, ExploreControl{}).Sum;
}
