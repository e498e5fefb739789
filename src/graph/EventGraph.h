//===-- graph/EventGraph.h - The per-simulation event graph -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event graph `G` of Section 3.1: a map from event ids to events plus
/// the `so` (synchronized-with) relation between them. One graph instance
/// spans a whole simulation; events are tagged with the library object they
/// belong to, so per-object graphs (as in the paper, one graph per object)
/// are the projections by ObjId. Keeping a single id space is what makes
/// the elimination-stack composition of Section 4 expressible: its events
/// are built from the base stack's and the exchanger's events.
///
/// The graph is append-only and grows through a reserve/commit/retract
/// protocol driven by the spec monitor (spec/SpecMonitor.h): ids are
/// reserved before an operation's commit instruction so that the commit
/// write can carry the id in its message's logical view, and either
/// committed (filling in the event) or retracted (e.g. when a CAS that
/// would have been the commit point fails).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_GRAPH_EVENTGRAPH_H
#define COMPASS_GRAPH_EVENTGRAPH_H

#include "graph/Event.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace compass::graph {

/// A pair in the synchronized-with relation; for container objects the
/// first component is the producing event (Enq/Push) and the second the
/// consuming one (DeqOk/PopOk); for exchangers so-pairs come in both
/// directions (Section 4.2).
struct SoEdge {
  EventId From;
  EventId To;
};

/// The (global) event graph; see file comment.
class EventGraph {
public:
  /// Rewinds to the empty graph, keeping vector capacity for reuse.
  void reset() {
    Events.clear();
    States.clear();
    So.clear();
    UndoLog.clear();
    NextCommitIdx = 0;
  }

  /// A point in this graph's mutation history, for the copy-on-write
  /// engine (sim/Engine.h). Capturing one is O(1); trimToEpoch rewinds
  /// to it touching only state created after the mark. Epochs pop LIFO
  /// along the DFS path, mirroring rmc::Memory::Epoch.
  struct Epoch {
    size_t NumEvents = 0;
    size_t NumSo = 0;
    uint32_t NextCommit = 0;
    size_t UndoMark = 0;
  };

  Epoch epoch() const {
    return {Events.size(), So.size(), NextCommitIdx, UndoLog.size()};
  }

  /// Rewinds to \p E: ids reserved after the mark are dropped; ids
  /// reserved before but committed/retracted after revert to Reserved
  /// (their event payload may hold garbage, exactly as a fresh
  /// reservation's does); so edges and commit indices rewind with them.
  void trimToEpoch(const Epoch &E);

  /// Allocates a fresh id in Reserved state.
  EventId reserve();

  /// Fills in the event for a reserved id and assigns the next commit
  /// index. \p E.CommitIdx is overwritten.
  void commit(EventId Id, Event E);

  /// Marks a reserved id as permanently unused.
  void retract(EventId Id);

  /// Composition/testing support: inserts a committed event with an
  /// explicit id and commit index (both must be unused). Used to build
  /// derived graphs (spec/Composition.h) and hand-crafted graphs in tests.
  void addRaw(EventId Id, Event E);

  /// Adds an so edge between two committed events.
  void addSo(EventId From, EventId To);

  unsigned size() const { return static_cast<unsigned>(Events.size()); }

  /// True if \p Id is committed (has a real event).
  bool isCommitted(EventId Id) const;

  /// The event for a committed id.
  const Event &event(EventId Id) const;

  const std::vector<SoEdge> &so() const { return So; }

  /// Local happens-before: e != d, both committed, and e is in d's logical
  /// view (Section 3.1's `(e, d) ∈ G.lhb`).
  bool lhb(EventId E, EventId D) const;

  /// Ids of committed events belonging to \p ObjId, in commit order.
  std::vector<EventId> objectEvents(unsigned ObjId) const;

  /// Ids of all committed events, in commit order.
  std::vector<EventId> committedEvents() const;

  /// The so-matches of \p Id (edges Id -> x).
  std::vector<EventId> soSuccessors(EventId Id) const;

  /// The so-predecessors of \p Id (edges x -> Id).
  std::vector<EventId> soPredecessors(EventId Id) const;

  /// For container objects: the consuming event matched to producer \p Id,
  /// if any. Asserts at most one exists.
  std::optional<EventId> matchOfProducer(EventId Id) const;

  /// For container objects: the producer matched to consumer \p Id.
  std::optional<EventId> matchOfConsumer(EventId Id) const;

  /// Structural sanity of the graph itself (independent of any library's
  /// consistency conditions): logical views only contain earlier-committed
  /// or own ids, logical views are transitively closed over committed
  /// events, so edges connect committed events, commit indices are unique.
  /// Returns an error description, or empty if well-formed.
  std::string checkWellFormed() const;

  /// Appends an exact encoding of everything a spec check can read to
  /// \p Out: each id's state and, for committed events, the kind, V1, V2,
  /// ObjId, Thread, CommitIdx and LogView, then the so edges. Two graphs
  /// with equal keys answer every query above identically. PhysView is
  /// left out: no check reads it (spec/ and check/ only consult logical
  /// views), and physical views differ between interleavings that build
  /// the same graph. Used to memoize verdicts (check/Harness.h).
  void appendKey(std::vector<uint64_t> &Out) const;

  std::string str() const;

private:
  enum class State : uint8_t { Reserved, Committed, Retracted };

  std::vector<Event> Events;
  std::vector<State> States;
  std::vector<SoEdge> So;
  uint32_t NextCommitIdx = 0;
  /// Ids whose state left Reserved (commit or retract), in order; popping
  /// one reverts the id to Reserved. Truncations handle everything else.
  std::vector<EventId> UndoLog;
};

} // namespace compass::graph

#endif // COMPASS_GRAPH_EVENTGRAPH_H
