//===-- sim/Checkpoint.h - Exploration frontier snapshots -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-resilient checkpointing of an in-flight exploration (DESIGN.md
/// Section 9): an ExplorationSnapshot captures everything needed to finish
/// an interrupted exhaustive search *exactly* —
///
///  * the live frontier as a disjoint set of pinned DecisionTree prefixes
///    (the shared work queue plus every worker's drained backtrack state,
///    with sleep snapshots where the reduction was active), and
///  * the deterministic Summary core of the already-executed share.
///
/// Because donated prefixes partition the decision tree (the invariant the
/// parallel explorer is built on), exploring the snapshot's frontier — at
/// any worker count, in any order — and merging the resulting cores into
/// the saved partial core reproduces the bit-identical Summary of an
/// uninterrupted run. exploreResumable (ParallelExplorer.h) produces and
/// consumes snapshots; serializeSnapshot/parseSnapshot give them a
/// versioned, line-oriented text form for checkpoint files.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_CHECKPOINT_H
#define COMPASS_SIM_CHECKPOINT_H

#include "sim/Explorer.h"

#include <string>
#include <string_view>
#include <vector>

namespace compass::sim {

/// The resumable state of one interrupted exploration; see file comment.
struct ExplorationSnapshot {
  /// Deterministic Summary core of the executions performed so far
  /// (Exhausted is true: the executed share is complete, the remainder's
  /// exhaustion is accounted by the frontier prefixes once explored).
  Explorer::Summary Partial;

  /// Disjoint pinned prefixes covering every unexplored decision
  /// sequence. Empty means the exploration finished (nothing to resume).
  std::vector<DecisionTree::Prefix> Frontier;

  bool empty() const { return Frontier.empty(); }
};

/// Interns \p Tag into a process-lifetime string table and returns a
/// stable pointer, so deserialized DecisionTree::Decision::Tag values
/// compare and print like the static literals they were serialized from.
const char *internTag(std::string_view Tag);

/// Serializes \p S in a versioned line-oriented text format (see
/// Checkpoint.cpp for the grammar). The output is self-contained and
/// embeddable inside larger checkpoint files (check/Checkpoint.h).
std::string serializeSnapshot(const ExplorationSnapshot &S);

/// Parses serializeSnapshot output. On failure returns false and sets
/// \p Err; \p Out is left in an unspecified state. Unknown trailing lines
/// after the closing marker are not consumed (streaming-friendly).
bool parseSnapshot(std::string_view Text, ExplorationSnapshot &Out,
                   std::string &Err);

} // namespace compass::sim

#endif // COMPASS_SIM_CHECKPOINT_H
