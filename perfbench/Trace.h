//===-- perfbench/Trace.h - In-memory spans at the public API ---*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans are taken only at the boundaries the
/// benchmark can see from outside the checker:
///
///   input                     one per benchmark input
///     check.shrink            mutants: one per shrinkCounterexample call
///     check.hunt              mutants: one per hunt scenario
///       sim.explore           its exploreSerial call
///     sim.explore             sweep/deep: the exploreResumable call
///       sim.body              under every sim.explore: one per
///                             instantiated Workload::Body, from the
///                             factory call to the body's destruction (one
///                             per explorer worker)
///
/// Body closures (Setup, Check, CowSave, CowRestore) run once per
/// execution, millions of times per run, so each body keeps a sum plus a
/// count per closure instead of spans. Every body owns its accumulator, so
/// the parallel explorer's workers never share one.
///
/// Spans stay in memory; writeJsonl() dumps them when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "sim/Workload.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

namespace sim = compass::sim;

/// Monotonic nanoseconds.
uint64_t nowNs();

/// Sum plus count of one body closure's calls.
struct ClosureAgg {
  uint64_t Ns = 0;
  uint64_t Calls = 0;
};

/// One body instantiation's closure aggregates and lifetime.
struct BodyAcc {
  uint32_t Span = 0; ///< The sim.body span this accumulator closes.
  ClosureAgg Setup, Check, CowSave, CowRestore;

  uint64_t closureNs() const {
    return Setup.Ns + Check.Ns + CowSave.Ns + CowRestore.Ns;
  }
};

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = root.
  uint32_t Input = 0;  ///< Benchmark input the span belongs to.
  const char *Name = "";
  uint64_t Begin = 0, End = 0;
  std::shared_ptr<const BodyAcc> Body; ///< Set on sim.body spans.

  uint64_t ns() const { return End - Begin; }
};

class Tracer {
public:
  /// Opens a span (ids start at 1) and returns its id.
  uint32_t begin(const char *Name, uint32_t Parent, uint32_t Input);
  void end(uint32_t Id);

  /// \p W with every instantiated body wrapped: each closure is timed into
  /// a per-body accumulator whose lifetime is a sim.body span under
  /// \p ExploreSpan. The copy-on-write flags are copied, and CowSave /
  /// CowRestore are wrapped only when set, because the engine decides
  /// copy-on-write eligibility from whether they are present.
  sim::Workload wrap(const sim::Workload &W, uint32_t ExploreSpan,
                     uint32_t Input);

  /// Spans in creation order (thread-safe to read once exploration ended).
  const std::vector<Span> &spans() const { return Spans; }

  /// One JSON object per line: id, parent, input, name, begin/end ns, and
  /// for sim.body spans the closure sums and counts.
  bool writeJsonl(const std::string &Path) const;

private:
  std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint32_t Parent, uint32_t Input)
      : T(T), Id(T ? T->begin(Name, Parent, Input) : 0) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  uint32_t id() const { return Id; }

private:
  Tracer *T;
  uint32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
