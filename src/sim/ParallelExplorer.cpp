//===-- sim/ParallelExplorer.cpp - Multi-worker DFS exploration -----------===//

#include "sim/ParallelExplorer.h"

#include "sim/Engine.h"
#include "support/Choice.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
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

/// A stable ChoiceSource facade over a worker's *current* Explorer. The
/// machine and scheduler bind their ChoiceSource by reference once at
/// construction, but a worker explores many donated subtrees, each with a
/// fresh Explorer (the decision tree is per-subtree state). The slot lets
/// one persistent machine/scheduler arena serve them all: each subtree
/// re-points the slot and the simulation never re-allocates.
class ChoiceSlot : public ChoiceSource {
public:
  void bind(ChoiceSource &S) { Cur = &S; }
  unsigned choose(unsigned Count, const char *Tag) override {
    return Cur->choose(Count, Tag);
  }
  // Every ChoiceSource entry point must forward, or the facade silently
  // changes semantics: the base-class chooseLimited fallback would erase
  // the source-set restriction (full-arity enumeration) only for worker
  // explorers, breaking worker-count determinism.
  unsigned chooseLimited(unsigned Count, unsigned Limit,
                         const char *Tag) override {
    return Cur->chooseLimited(Count, Limit, Tag);
  }
  size_t decisionPosition() const override {
    return Cur->decisionPosition();
  }

private:
  ChoiceSource *Cur = nullptr;
};

/// Per-worker observability counters, sampled by the coordinator for
/// heartbeats. Cache-line padded; all accesses relaxed — these are
/// telemetry, not synchronization.
struct alignas(64) WorkerStats {
  std::atomic<uint64_t> Execs{0};
  std::atomic<uint64_t> Donated{0};
  std::atomic<uint64_t> Frontier{0};
  std::atomic<uint64_t> Depth{0};
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

/// State shared by all workers of one parallel exploration.
///
/// Work distribution is decentralized: each worker owns a deque seeded /
/// refilled by its own donations, and steals from other deques only when
/// its own is empty. Termination is unit-counted: Outstanding tracks
/// prefixes that are queued or in progress; the worker that retires the
/// last unit flips Done.
struct SharedState {
  std::mutex Mu; ///< Guards Done and the sleep/wake protocol only.
  std::condition_variable Cv;
  bool Done = false;

  std::vector<WorkerDeque> Deques;
  std::atomic<uint64_t> Outstanding{0}; ///< Queued + in-progress prefixes.
  std::atomic<uint64_t> QueuedTotal{0}; ///< Prefixes sitting in deques.
  std::atomic<unsigned> Busy{0};        ///< Workers holding a subtree.
  std::atomic<uint64_t> PeakQueue{0};
  std::atomic<uint64_t> Donations{0};

  /// Global execution budget (Options::MaxExecutions), claimed one ticket
  /// per execution so the parallel run performs exactly as many executions
  /// as the serial one would. Seeded with the resumed snapshot's executed
  /// base so the budget (and InterruptAtExecs) stay global across
  /// segments.
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

  explicit SharedState(unsigned Workers) : Deques(Workers) {}

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

  /// Appends \p Prefixes to worker \p Wid's deque and wakes sleepers. The
  /// notify is taken under Mu unconditionally, which makes the sleep/wake
  /// race-free: a would-be sleeper re-checks QueuedTotal under Mu before
  /// waiting, so it either sees this batch or receives this notify.
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
    {
      std::lock_guard<std::mutex> L(Mu);
      Cv.notify_all();
    }
  }

  /// Retires one work unit (finished subtree or discarded prefix); the
  /// last retirement terminates the exploration.
  void retireUnit() {
    if (Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
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
    unsigned N = static_cast<unsigned>(Deques.size());
    for (unsigned K = 0; K != N; ++K) {
      unsigned V = (Wid + K) % N;
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
      std::unique_lock<std::mutex> L(Mu);
      if (Done)
        return false;
      if (Interrupt.load(std::memory_order_relaxed)) {
        // Leave the queued prefixes in place: the coordinator collects
        // them into the snapshot frontier after the workers exit.
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

} // namespace

ExploreResult compass::sim::exploreResumable(const Workload &W,
                                             const ExploreControl &Ctl,
                                             const ExplorationSnapshot *Resume) {
  const Explorer::Options &Opts = W.options();
  if (Opts.ExploreMode == Explorer::Mode::Random) {
    // Sampling has no tree to partition or checkpoint.
    ExploreResult R;
    R.Sum = exploreSerial(W);
    return R;
  }

  unsigned N = std::max(1u, Opts.Workers);
  auto Start = std::chrono::steady_clock::now();

  SharedState Sh(N);
  {
    // Seed the deques round-robin with the initial frontier: the root
    // prefix, or a resumed snapshot's pinned subtrees.
    std::vector<std::vector<DecisionTree::Prefix>> Seed(N);
    if (Resume && !Resume->Frontier.empty()) {
      for (size_t I = 0; I != Resume->Frontier.size(); ++I)
        Seed[I % N].push_back(Resume->Frontier[I]);
      Sh.Tickets.store(Resume->Partial.Executions,
                       std::memory_order_relaxed);
    } else {
      Seed[0].push_back(DecisionTree::Prefix{}); // the root subtree
    }
    for (unsigned I = 0; I != N; ++I)
      Sh.pushBatch(I, std::move(Seed[I]), /*CountAsDonation=*/false);
  }
  if (Resume && Resume->Partial.HasViolation)
    Sh.offerViolation(Resume->Partial.firstViolationDecisions());

  // Per-worker partial summaries, merged in worker order at the end (all
  // core fields merge commutatively, so the order is immaterial — it just
  // keeps the aggregation obviously deterministic).
  std::vector<Explorer::Summary> Partials(N);
  std::vector<uint64_t> PeakFrontiers(N, 0);
  std::vector<WorkerStats> Stats(N);

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
    Workload::Body Body = W.makeBody();
    Explorer::Options WOpts = Opts;
    WOpts.MaxExecutions = ~0ull; // budget enforced via shared tickets
    WOpts.ProgressIntervalSec = 0;

    Explorer::Summary &Local = Partials[Wid];
    Local.Exhausted = true; // AND-folded over the worker's subtrees
    WorkerStats &St = Stats[Wid];

    // One persistent simulation arena per worker: machine and scheduler
    // outlive the subtrees (reset() rewinds watermarks without freeing),
    // so steady-state allocation happens once per worker, not once per
    // donated prefix — and the per-subtree Engine gives every worker the
    // same copy-on-write fast path as the serial explorer.
    ChoiceSlot Choices;
    rmc::Machine M(Choices);
    Scheduler S(M, Choices);
    S.setPreemptionBound(Opts.PreemptionBound);

    DecisionTree::Prefix Prefix;
    while (Sh.acquire(Wid, Prefix, Opts.StopOnViolation)) {
      Explorer Ex(WOpts, std::move(Prefix));
      Choices.bind(Ex);
      S.setReduction(Ex.reduction());
      Engine Eng(Ex, M, S, Body);
      for (;;) {
        // The execution-count tripwire is checked worker-side (not only in
        // the coordinator's 50ms poll) so it lands precisely even on trees
        // that finish faster than a poll interval.
        if (Ctl.InterruptAtExecs > 0 &&
            !Sh.Interrupt.load(std::memory_order_relaxed) &&
            Sh.Tickets.load(std::memory_order_relaxed) >=
                Ctl.InterruptAtExecs) {
          Sh.Interrupt.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> L(Sh.Mu);
          Sh.Cv.notify_all();
        }
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
        // global execution count matches the serial explorer's.
        uint64_t T = Sh.Tickets.fetch_add(1, std::memory_order_relaxed);
        if (T >= Opts.MaxExecutions)
          break;
        bool Began = Ex.beginExecution();
        (void)Began;
        assert(Began && "hasWork() promised an execution");

        Engine::ExecResult R = Eng.runOne();
        Ex.recordCheck(R.CheckOk);
        Ex.endExecution(R.Run);
        St.Execs.fetch_add(1, std::memory_order_relaxed);
        const uint64_t Frontier = Ex.frontierSize();
        St.Frontier.store(Frontier, std::memory_order_relaxed);
        St.Depth.store(Ex.currentDepth(), std::memory_order_relaxed);
        if (!R.CheckOk && Opts.StopOnViolation) {
          // DFS yields each subtree's lex-least violation first, so this
          // subtree is finished; publish the find and let the search
          // continue only where a lex-smaller violation could hide.
          Sh.offerViolation(Ex.summary().firstViolationDecisions());
          std::lock_guard<std::mutex> L(Sh.Mu);
          Sh.Cv.notify_all();
          break;
        }

        // Work sharing (see the donation-policy comment above).
        if (N > 1 &&
            Sh.QueuedTotal.load(std::memory_order_relaxed) <
                DonateLowWater &&
            Frontier >= DonateMinFrontier && Ex.splittable()) {
          std::vector<DecisionTree::Prefix> Don = Ex.split(DonateBatch);
          St.Donated.fetch_add(Don.size(), std::memory_order_relaxed);
          Sh.pushBatch(Wid, std::move(Don), /*CountAsDonation=*/true);
        }
      }
      PeakFrontiers[Wid] =
          std::max(PeakFrontiers[Wid], Ex.summary().Perf.PeakFrontier);
      Local.mergeCore(Ex.summary()); // AND-folds the subtree's Exhausted bit
      Local.Perf.StepsExecuted += Eng.stepsExecuted();
      Local.Perf.StepsLogical += Eng.stepsLogical();
      Local.Perf.CowResumes += Eng.cowResumes();
      Local.Perf.RootRuns += Eng.rootRuns();
      Sh.finishSubtree();
    }
  };

  std::vector<std::thread> Workers;
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back(WorkerMain, I);

  // Coordinator loop: polls the external controls and emits heartbeats /
  // progress lines until the workers are done.
  {
    const bool NeedPoll =
        Ctl.StopRequested || Ctl.DeadlineSec > 0 || Ctl.InterruptAtExecs > 0;
    const bool NeedHeartbeat =
        Ctl.HeartbeatIntervalSec > 0 && static_cast<bool>(Ctl.OnHeartbeat);
    const bool NeedProgress = Opts.ProgressIntervalSec > 0;
    double WaitSec = std::numeric_limits<double>::infinity();
    if (NeedPoll)
      WaitSec = 0.05;
    if (NeedHeartbeat)
      WaitSec = std::min(WaitSec, Ctl.HeartbeatIntervalSec);
    if (NeedProgress)
      WaitSec = std::min(WaitSec, Opts.ProgressIntervalSec);

    double LastHeartbeat = 0, LastProgress = 0;
    std::unique_lock<std::mutex> L(Sh.Mu);
    while (!Sh.Done) {
      if (WaitSec == std::numeric_limits<double>::infinity())
        Sh.Cv.wait(L);
      else
        Sh.Cv.wait_for(L, std::chrono::duration<double>(WaitSec));
      if (Sh.Done)
        break;
      double Wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      uint64_t Execs = std::min<uint64_t>(
          Sh.Tickets.load(std::memory_order_relaxed), Opts.MaxExecutions);
      if (!Sh.Interrupt.load(std::memory_order_relaxed)) {
        bool Trip =
            (Ctl.StopRequested &&
             Ctl.StopRequested->load(std::memory_order_relaxed)) ||
            (Ctl.DeadlineSec > 0 && Wall >= Ctl.DeadlineSec) ||
            (Ctl.InterruptAtExecs > 0 && Execs >= Ctl.InterruptAtExecs);
        if (Trip) {
          Sh.Interrupt.store(true, std::memory_order_relaxed);
          Sh.Cv.notify_all();
        }
      }
      if (NeedHeartbeat && Wall - LastHeartbeat >= Ctl.HeartbeatIntervalSec) {
        LastHeartbeat = Wall;
        ExploreHeartbeat Hb;
        Hb.WallSeconds = Wall;
        Hb.Executions = Execs;
        Hb.ExecsPerSec = Wall > 0 ? Execs / Wall : 0.0;
        Hb.QueueSize = Sh.QueuedTotal.load(std::memory_order_relaxed);
        Hb.BusyWorkers = Sh.Busy.load(std::memory_order_relaxed);
        Hb.Workers = N;
        Hb.Donations = Sh.Donations.load(std::memory_order_relaxed);
        Hb.PerWorker.resize(N);
        for (unsigned I = 0; I != N; ++I) {
          Hb.PerWorker[I].Execs =
              Stats[I].Execs.load(std::memory_order_relaxed);
          Hb.PerWorker[I].Donated =
              Stats[I].Donated.load(std::memory_order_relaxed);
          Hb.PerWorker[I].Frontier =
              Stats[I].Frontier.load(std::memory_order_relaxed);
          Hb.PerWorker[I].Depth =
              Stats[I].Depth.load(std::memory_order_relaxed);
        }
        L.unlock();
        Ctl.OnHeartbeat(Hb); // user callback runs outside the lock
        L.lock();
      }
      if (NeedProgress && Wall - LastProgress >= Opts.ProgressIntervalSec) {
        LastProgress = Wall;
        std::fprintf(
            stderr,
            "[explore x%u] ~%llu execs, %.0f execs/s, queue=%llu, "
            "busy=%u\n",
            N, static_cast<unsigned long long>(Execs),
            Wall > 0 ? Execs / Wall : 0.0,
            static_cast<unsigned long long>(
                Sh.QueuedTotal.load(std::memory_order_relaxed)),
            Sh.Busy.load(std::memory_order_relaxed));
      }
    }
  }

  for (std::thread &Th : Workers)
    Th.join();

  ExploreResult Res;

  Explorer::Summary Agg;
  Agg.Exhausted = true;
  if (Resume)
    Agg.mergeCore(Resume->Partial);
  for (const Explorer::Summary &P : Partials) {
    Agg.mergeCore(P);
    Agg.Perf.StepsExecuted += P.Perf.StepsExecuted;
    Agg.Perf.StepsLogical += P.Perf.StepsLogical;
    Agg.Perf.CowResumes += P.Perf.CowResumes;
    Agg.Perf.RootRuns += P.Perf.RootRuns;
  }

  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Agg.Perf.WallSeconds = Wall;
  Agg.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Agg.Executions) / Wall : 0.0;
  for (uint64_t Pf : PeakFrontiers)
    Agg.Perf.PeakFrontier = std::max(Agg.Perf.PeakFrontier, Pf);
  Agg.Perf.PeakQueue = Sh.PeakQueue.load(std::memory_order_relaxed);
  Agg.Perf.Donations = Sh.Donations.load(std::memory_order_relaxed);
  Agg.Perf.Workers = N;

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

Explorer::Summary ParallelExplorer::run() {
  return exploreResumable(W, ExploreControl{}).Sum;
}

Explorer::Summary compass::sim::explore(const Workload &W) {
  if (W.options().Workers > 1 &&
      W.options().ExploreMode == Explorer::Mode::Exhaustive)
    return ParallelExplorer(W).run();
  return exploreSerial(W);
}
