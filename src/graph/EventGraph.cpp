//===-- graph/EventGraph.cpp - The per-simulation event graph --------------===//

#include "graph/EventGraph.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace compass;
using namespace compass::graph;

EventId EventGraph::reserve() {
  Events.emplace_back();
  States.push_back(State::Reserved);
  return static_cast<EventId>(Events.size()) - 1;
}

void EventGraph::commit(EventId Id, Event E) {
  if (Id >= Events.size() || States[Id] != State::Reserved)
    fatalError("commit of an id that is not reserved");
  E.CommitIdx = NextCommitIdx++;
  Events[Id] = std::move(E);
  States[Id] = State::Committed;
  UndoLog.push_back(Id);
  assert(Events[Id].Kind != OpKind::Invalid && "committing an empty event");
}

void EventGraph::retract(EventId Id) {
  if (Id >= Events.size() || States[Id] != State::Reserved)
    fatalError("retract of an id that is not reserved");
  States[Id] = State::Retracted;
  UndoLog.push_back(Id);
}

void EventGraph::trimToEpoch(const Epoch &E) {
  assert(E.UndoMark <= UndoLog.size() && "epoch from a different timeline");
  for (size_t I = UndoLog.size(); I > E.UndoMark; --I) {
    EventId Id = UndoLog[I - 1];
    if (Id < E.NumEvents)
      States[Id] = State::Reserved;
  }
  UndoLog.resize(E.UndoMark);
  Events.resize(E.NumEvents);
  States.resize(E.NumEvents, State::Reserved);
  So.resize(E.NumSo);
  NextCommitIdx = E.NextCommit;
}

void EventGraph::addRaw(EventId Id, Event E) {
  if (Id >= Events.size()) {
    Events.resize(Id + 1);
    States.resize(Id + 1, State::Retracted);
  }
  if (States[Id] == State::Committed)
    fatalError("addRaw would overwrite a committed event");
  if (E.Kind == OpKind::Invalid)
    fatalError("addRaw of an invalid event");
  States[Id] = State::Committed;
  if (E.CommitIdx >= NextCommitIdx)
    NextCommitIdx = E.CommitIdx + 1;
  Events[Id] = std::move(E);
}

void EventGraph::addSo(EventId From, EventId To) {
  if (!isCommitted(From) || !isCommitted(To))
    fatalError("so edge between uncommitted events");
  So.push_back({From, To});
}

bool EventGraph::isCommitted(EventId Id) const {
  return Id < Events.size() && States[Id] == State::Committed;
}

const Event &EventGraph::event(EventId Id) const {
  if (!isCommitted(Id))
    fatalError("event() on an uncommitted id");
  return Events[Id];
}

bool EventGraph::lhb(EventId E, EventId D) const {
  if (E == D || !isCommitted(E) || !isCommitted(D))
    return false;
  return Events[D].LogView.contains(E);
}

std::vector<EventId> EventGraph::committedEvents() const {
  std::vector<EventId> Out;
  for (EventId Id = 0, N = static_cast<EventId>(Events.size()); Id != N;
       ++Id)
    if (States[Id] == State::Committed)
      Out.push_back(Id);
  std::sort(Out.begin(), Out.end(), [&](EventId A, EventId B) {
    return Events[A].CommitIdx < Events[B].CommitIdx;
  });
  return Out;
}

std::vector<EventId> EventGraph::objectEvents(unsigned ObjId) const {
  std::vector<EventId> Out;
  for (EventId Id : committedEvents())
    if (Events[Id].ObjId == ObjId)
      Out.push_back(Id);
  return Out;
}

std::vector<EventId> EventGraph::soSuccessors(EventId Id) const {
  std::vector<EventId> Out;
  for (const SoEdge &Edge : So)
    if (Edge.From == Id)
      Out.push_back(Edge.To);
  return Out;
}

std::vector<EventId> EventGraph::soPredecessors(EventId Id) const {
  std::vector<EventId> Out;
  for (const SoEdge &Edge : So)
    if (Edge.To == Id)
      Out.push_back(Edge.From);
  return Out;
}

std::optional<EventId> EventGraph::matchOfProducer(EventId Id) const {
  std::vector<EventId> Succ = soSuccessors(Id);
  assert(Succ.size() <= 1 && "producer matched more than once");
  if (Succ.empty())
    return std::nullopt;
  return Succ.front();
}

std::optional<EventId> EventGraph::matchOfConsumer(EventId Id) const {
  std::vector<EventId> Pred = soPredecessors(Id);
  assert(Pred.size() <= 1 && "consumer matched more than once");
  if (Pred.empty())
    return std::nullopt;
  return Pred.front();
}

std::string EventGraph::checkWellFormed() const {
  std::vector<EventId> Committed = committedEvents();

  // Commit indices are unique (committedEvents sorted by them).
  for (size_t I = 1; I < Committed.size(); ++I)
    if (Events[Committed[I - 1]].CommitIdx ==
        Events[Committed[I]].CommitIdx)
      return "duplicate commit index";

  for (EventId D : Committed) {
    const Event &Ev = Events[D];
    if (!Ev.LogView.contains(D))
      return "event " + std::to_string(D) +
             " does not observe itself in its logical view";
    bool Bad = false;
    std::string Err;
    Ev.LogView.forEach([&](EventId E) {
      if (Bad || E == D)
        return;
      if (E >= Events.size()) {
        Bad = true;
        Err = "logical view contains unknown id";
        return;
      }
      if (States[E] != State::Committed)
        return; // Retracted/reserved ids in views carry no information.
      if (Events[E].CommitIdx >= Ev.CommitIdx) {
        Bad = true;
        Err = "event " + std::to_string(D) +
              " observes later-committed event " + std::to_string(E);
        return;
      }
      // Transitivity: what E observed, D observes.
      if (!Bad) {
        Events[E].LogView.forEach([&](EventId F) {
          if (States[F] == State::Committed && !Ev.LogView.contains(F)) {
            Bad = true;
            Err = "logical views not transitively closed";
          }
        });
      }
    });
    if (Bad)
      return Err;
  }

  for (const SoEdge &Edge : So)
    if (!isCommitted(Edge.From) || !isCommitted(Edge.To))
      return "so edge between uncommitted events";
  return "";
}

void EventGraph::appendKey(std::vector<uint64_t> &Out) const {
  static_assert(sizeof(unsigned) == 4 && sizeof(EventId) == 4,
                "key packs ids and 32-bit fields two to a word");
  Out.push_back(Events.size());
  for (size_t Id = 0, N = Events.size(); Id != N; ++Id) {
    if (States[Id] != State::Committed) {
      // A reserved or retracted id's payload is never read (it may hold
      // garbage after a trim), so only its state is keyed.
      Out.push_back(static_cast<uint64_t>(States[Id]));
      continue;
    }
    const Event &E = Events[Id];
    Out.push_back(static_cast<uint64_t>(State::Committed) |
                  static_cast<uint64_t>(E.Kind) << 8 |
                  static_cast<uint64_t>(E.Thread) << 32);
    Out.push_back(E.ObjId | static_cast<uint64_t>(E.CommitIdx) << 32);
    Out.push_back(E.V1);
    Out.push_back(E.V2);
    E.LogView.appendWords(Out);
  }
  Out.push_back(So.size());
  for (const SoEdge &Edge : So)
    Out.push_back(Edge.From | static_cast<uint64_t>(Edge.To) << 32);
}

std::string EventGraph::str() const {
  std::string Out;
  for (EventId Id : committedEvents()) {
    Out += Events[Id].str(Id);
    Out += "\n";
  }
  for (const SoEdge &Edge : So)
    Out += "so: #" + std::to_string(Edge.From) + " -> #" +
           std::to_string(Edge.To) + "\n";
  return Out;
}
