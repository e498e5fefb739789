//===-- rmc/Knowledge.h - Physical + logical view pairs --------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Knowledge` bundles a *physical view* (Loc -> Timestamp, Section 2.3)
/// with a *logical view* (a set of library-event ids, Section 3.1). Both
/// components are transferred by exactly the same release/acquire rules, so
/// the machine manipulates them together: messages carry Knowledge, threads
/// accumulate Knowledge, and joining a message's Knowledge into a thread's
/// models synchronization. The logical half is the runtime realization of
/// the paper's `SeenQueue`/`SeenStack` ghost assertions: committing an
/// operation inserts its event id into the committing thread's Knowledge,
/// and any thread that later synchronizes with that commit observes the id.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_RMC_KNOWLEDGE_H
#define COMPASS_RMC_KNOWLEDGE_H

#include "rmc/View.h"
#include "support/IdSet.h"

namespace compass::rmc {

/// What a thread or a message "knows": observed writes plus observed
/// library events.
struct Knowledge {
  /// Physical view: observed write timestamps per location.
  View Phys;

  /// Logical view: observed library-event ids (the paper's logview).
  IdSet Events;

  /// Joins \p Other into this (pointwise max / set union).
  void joinWith(const Knowledge &Other) {
    Phys.joinWith(Other.Phys);
    Events.joinWith(Other.Events);
  }

  /// Empties both components while keeping their backing storage (the
  /// machine-arena reset path; see View::clear).
  void clear() {
    Phys.clear();
    Events.clear();
  }
};

} // namespace compass::rmc

#endif // COMPASS_RMC_KNOWLEDGE_H
