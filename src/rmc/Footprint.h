//===-- rmc/Footprint.h - Per-step access footprints ------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access footprint of one machine step: which location it touches and
/// in which capacity (read / write / update / fence). Footprints are the
/// interface between the view machine and the source-set partial-order
/// reduction (sim/Reduction.h): the Machine reports the footprint of every
/// executed operation, the Scheduler tracks the *pending* footprint of each
/// parked thread, and the reduction layer derives an independence relation
/// from them.
///
/// Independence over view-based steps (DESIGN.md Section 8): a non-SC step
/// by thread t mutates only t's own view state, plus — for writes/updates —
/// the history of the single touched cell. Hence two steps by *different*
/// threads commute whenever
///  * either is a thread-start step or a non-SC fence (purely thread-local),
///  * they touch different locations, or
///  * they touch the same location but both only read (a read never changes
///    the cell history nor another thread's readable set).
/// SC accesses and SC fences additionally join/update the machine's global
/// SC view, so two SC-tagged steps never commute. Kind::None (unknown) is
/// conservatively dependent on everything.
///
/// The commutation is exact modulo allocation renaming: a step may allocate
/// fresh cells, and swapping two allocating steps renumbers the fresh Locs.
/// The renamed states are isomorphic, and every property the framework
/// checks is invariant under that isomorphism, so allocation is treated as
/// footprint-free.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_RMC_FOOTPRINT_H
#define COMPASS_RMC_FOOTPRINT_H

#include "rmc/View.h"

#include <cstdint>

namespace compass::rmc {

/// The access footprint of one machine step; see file comment.
struct Footprint {
  /// What the step does to its location.
  enum class Kind : uint8_t {
    None,   ///< Unknown / not a memory step: dependent on everything.
    Start,  ///< Thread-start step (no memory access yet).
    Read,   ///< Load (including failed-CAS reads and spin-wait loads).
    Write,  ///< Plain store.
    Update, ///< RMW: successful CAS or fetch-add (read + write).
    Fence,  ///< Memory fence (no location).
    Reclaim, ///< Reclamation ghost step (pin / unpin / retire): touches the
             ///< global reclamation ghost state, not any cell history.
    Free     ///< Reclamation free step: invalidates cells for every thread.
  };

  Loc L = 0;            ///< Touched location (meaningless for Start/Fence).
  Kind K = Kind::None;  ///< Access kind.
  bool Sc = false;      ///< Step joins/updates the global SC view.
  /// Whether the access is atomic. Non-atomic accesses are excluded from
  /// the source-set refinement below: the machine's race detector is
  /// read-side asymmetric (the accessor must have observed the whole
  /// history), so both access orders of a non-atomic/atomic pair must be
  /// explored for the complementary race direction to surface. Excluded
  /// from operator==: the flag is derived from the access, never free.
  bool Atomic = false;

  bool isRead() const { return K == Kind::Read; }

  bool operator==(const Footprint &O) const {
    return L == O.L && K == O.K && Sc == O.Sc;
  }
};

/// True when steps with footprints \p A and \p B (by different threads)
/// commute; see file comment for the derivation.
inline bool independent(const Footprint &A, const Footprint &B) {
  if (A.K == Footprint::Kind::None || B.K == Footprint::Kind::None)
    return false; // Unknown steps are dependent on everything.
  if (A.Sc && B.Sc)
    return false; // Both touch the global SC view.
  if (A.K == Footprint::Kind::Start || B.K == Footprint::Kind::Start)
    return true; // Thread start touches no memory.
  if (A.K == Footprint::Kind::Free || B.K == Footprint::Kind::Free)
    return false; // Freeing invalidates cells for everyone: a plain access
                  // before vs. after a free is the use-after-free verdict
                  // itself, so frees commute with nothing (but Start).
  if (A.K == Footprint::Kind::Reclaim || B.K == Footprint::Kind::Reclaim) {
    // Pin/unpin/retire ghost steps all read-modify the shared reclamation
    // ghost state (pin sessions, retire snapshots, client retire bins), so
    // two of them never commute. Client bookkeeping may also ride on SC
    // steps (sim::Ebr claims a retire bin atomically with its epoch-advance
    // CAS), so Reclaim is additionally dependent on every SC step. Against
    // plain non-SC accesses and fences it is independent — it touches no
    // cell history and no thread view.
    if (A.K == Footprint::Kind::Reclaim &&
        B.K == Footprint::Kind::Reclaim)
      return false;
    return !A.Sc && !B.Sc;
  }
  if (A.K == Footprint::Kind::Fence || B.K == Footprint::Kind::Fence)
    return true; // Non-SC fences are thread-local (SC pairs handled above).
  if (A.L != B.L)
    return true; // Distinct cells: view effects are thread-local.
  return A.isRead() && B.isRead(); // Same cell: only read/read commutes.
}

/// Source-set refinement (DESIGN.md Section 12): whether a *sleeping* move
/// with footprint \p Asleep may stay asleep after a step with footprint
/// \p Done executed — even though the pair is dependent in the classic
/// independence relation — because every execution that delays the sleeping
/// move past the executed step and resolves its reads-from below the
/// sleeping move's history watermark commutes, state-exactly, back to the
/// already-explored sibling that ran the sleeping move first:
///  * executed Read vs sleeping Write/Update: reads never grow the history,
///    so the delayed write/update appends at the identical timestamp and
///    the read's view raise touches only its own thread — exact commute;
///  * executed Write/Update vs sleeping Read, and executed Write vs
///    sleeping Update: a read of a message *below* the watermark commutes
///    with the later append; only reads of messages appended since the
///    sleep are genuinely new, and the watermark (SleepMove::Ver) restricts
///    the delayed operation to exactly those.
/// Write/Write and Update-vs-sleeping-Write/Update pairs reverse the
/// modification order itself and must wake classically. The refinement
/// requires both footprints atomic (see Footprint::Atomic) and non-SC
/// (SC steps join the global SC view, which never commutes).
inline bool sourceKeepsAsleep(const Footprint &Done, const Footprint &Asleep) {
  if (independent(Done, Asleep))
    return true;
  if (Done.L != Asleep.L || !Done.Atomic || !Asleep.Atomic || Done.Sc ||
      Asleep.Sc)
    return false;
  using K = Footprint::Kind;
  const bool DoneRw = Done.K == K::Read || Done.K == K::Write ||
                      Done.K == K::Update;
  const bool AsleepRw = Asleep.K == K::Read || Asleep.K == K::Write ||
                        Asleep.K == K::Update;
  if (!DoneRw || !AsleepRw)
    return false;
  if (Done.K == K::Read)
    return true; // Read keeps Write and Update asleep (reads grow nothing).
  if (Asleep.K == K::Read)
    return true; // Write/Update keep Read asleep under the watermark.
  // Done is Write or Update, Asleep is Write or Update.
  return Done.K == K::Write && Asleep.K == K::Update;
}

} // namespace compass::rmc

#endif // COMPASS_RMC_FOOTPRINT_H
