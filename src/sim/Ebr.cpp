//===-- sim/Ebr.cpp - Simulated epoch-based reclamation -------------------===//

#include "sim/Ebr.h"

#include <utility>

using namespace compass;
using namespace compass::sim;
using namespace compass::rmc;

Ebr::Ebr(Machine &M, const std::string &Name, unsigned NumThreads,
         Options O)
    : NumThreads(NumThreads), Opts(O) {
  EpochLoc = M.alloc(Name + ".epoch");
  SlotLoc = M.alloc(Name + ".slot", NumThreads);
}

Task<void> Ebr::pin(Env &E) {
  Value Ep = co_await E.load(EpochLoc, MemOrder::Acquire);
  // Announce epoch Ep (slot value Ep+1; 0 means unpinned). SC, so an
  // advance scan that runs after this step cannot read a staler slot
  // message and miss the announcement.
  co_await E.store(SlotLoc + E.Tid, Ep + 1, MemOrder::SeqCst);
  // Pairs with the fence in advanceOnce (native Guard does the same): the
  // join with the global SC view is what guarantees a freshly pinned
  // reader cannot read a head pointer unlinked before an already-freed
  // cell's grace period elapsed.
  co_await E.fence(MemOrder::SeqCst);
  co_await E.pinEnter();
}

Task<void> Ebr::unpin(Env &E) {
  co_await E.pinExit();
  // Reading the bins rides on the pinExit ghost step (Kind::Reclaim),
  // which is dependent with every other bin mutation.
  bool Work =
      !Bins[0].empty() || !Bins[1].empty() || !Bins[2].empty();
  co_await E.store(SlotLoc + E.Tid, 0, MemOrder::Release);
  if (!Work)
    co_return;
  // Three rounds drain everything when the domain is quiescent: each
  // round frees one bin.
  for (int Round = 0; Round != 3; ++Round) {
    auto A = advanceOnce(E);
    bool Advanced = co_await A;
    if (!Advanced)
      co_return;
  }
}

Task<void> Ebr::retire(Env &E, Loc L, unsigned Count) {
  Value Ep = co_await E.load(EpochLoc, MemOrder::Acquire);
  // The ghost retire step marks the cells Retired and snapshots the pinned
  // readers; the bin push rides on the same step.
  co_await E.retire(L, Count);
  Bins[Ep % 3].push_back({L, Count});
}

Task<bool> Ebr::advanceOnce(Env &E) {
  Value Ep = co_await E.load(EpochLoc, MemOrder::Acquire);
  // Pairs with the fence in pin(): order the scan after any announcement
  // published before this step (native tryAdvance does the same).
  co_await E.fence(MemOrder::SeqCst);
  if (!Opts.SkipGracePeriod) {
    for (unsigned T = 0; T != NumThreads; ++T) {
      Value S = co_await E.load(SlotLoc + T, MemOrder::SeqCst);
      if (S != 0 && S != Ep + 1)
        co_return false; // A reader is still pinned in an older epoch.
    }
  }
  auto R = co_await E.cas(EpochLoc, Ep, Ep + 1, MemOrder::SeqCst);
  if (!R.Success)
    co_return false; // Someone else advanced; they claimed their bin.
  // Claim the bin epoch Ep+1 retires into — its contents are two full
  // grace periods old. The claim must ride on the successful CAS step
  // itself: a retire tagged Ep+1 can only exist after this CAS, so
  // claiming atomically with it keeps such cells out of this free. (The
  // Reclaim-vs-SC dependence in rmc::independent makes this pairing
  // visible to the source-set reduction.) The claim is a local snapshot: a
  // concurrent advancer must never see these entries again.
  std::vector<Batch> Claimed = std::move(Bins[(Ep + 1) % 3]);
  Bins[(Ep + 1) % 3].clear();
  for (const Batch &B : Claimed)
    co_await E.freeCells(B.L, B.Count);
  co_return true;
}
