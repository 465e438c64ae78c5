//===- Units.h - The benchmark's workloads, one program at a time -*- C++ -*-===//
///
/// \file
/// A workload runs the five programs in the paper's order; each program is
/// one *unit*. A unit is built in three steps so main() can time them
/// apart: setup() builds the Scheme systems (loadDefinitions compiles the
/// program) and the cache banks, run() is the measured work, and finish()
/// gathers the integer results into a digest once timing has stopped.
///
/// Every unit also has a reference form that computes the same digest
/// through the slow, independent path: the scalar per-reference cache
/// model (no batching, no threads) instead of the batch kernel or shard
/// workers, and, for trace-roundtrip, the live reference stream encoded in
/// memory instead of a trace file and its checkpointed replay.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UNITS_H
#define PERFBENCH_UNITS_H

#include "Tracing.h"

#include "gcache/workloads/Workload.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class WorkloadKind { PaperGrid, CollectAnalyse, TraceRoundtrip };

const char *workloadName(WorkloadKind K);
bool parseWorkload(const std::string &Name, WorkloadKind &K);

/// Integer results of one unit as named fields, hashed in order.
class Digest {
public:
  void add(const std::string &Field, uint64_t Value) {
    Fields.emplace_back(Field, Value);
  }
  std::string hex() const;
  /// Names the first field that differs from \p O ("" when equal).
  std::string firstDifference(const Digest &O) const;

private:
  std::vector<std::pair<std::string, uint64_t>> Fields;
};

uint64_t fnv1a(const void *Data, size_t Len, uint64_t H = 0xcbf29ce484222325ull);
/// \p V as 16 lowercase hex digits (the goldens' format).
std::string hex64(uint64_t V);

/// Work counts of one unit, read after it ran (the per-layer counts).
struct UnitCounts {
  uint64_t RefsDelivered = 0; ///< Live references plus records replayed.
  uint64_t MutatorRefs = 0;
  uint64_t CollectorRefs = 0;
  uint64_t Instructions = 0;
  uint64_t Collections = 0;
  uint64_t WordsCopied = 0;
  uint64_t BankAccesses = 0;
  uint64_t FetchMisses = 0;
  uint64_t Writebacks = 0;
  uint64_t Flushes = 0;
  uint64_t TraceRecords = 0;
  uint64_t TraceBytes = 0;
  uint64_t Checkpoints = 0;
  uint64_t CheckpointBytes = 0;

  UnitCounts &operator+=(const UnitCounts &O);
};

struct UnitResult {
  std::string Error; ///< Empty when the unit ran to completion.
  Digest D;
  uint64_t OutputHash = 0; ///< fnv1a of the program's checksum output.
  UnitCounts Counts;
};

struct BenchConfig {
  WorkloadKind Kind = WorkloadKind::PaperGrid;
  double Scale = 0.1;
  uint64_t Seed = 0; ///< Passed to SchemeSystemConfig::LayoutSeed.
  std::string WorkDir; ///< Trace and checkpoint files (trace-roundtrip).
  /// Collector sizing per program, from a control run (see sizeCollectors).
  std::map<std::string, uint32_t> Semispace;
  std::map<std::string, uint32_t> OldSemispace;
};

/// Fills Semispace/OldSemispace from one control run per program at the
/// configured scale: semispaceFor (bench/BenchCommon.h) and abl1's
/// old-generation size (allocation / 3, at least 1 MB).
void sizeCollectors(BenchConfig &C);

class Unit {
public:
  virtual ~Unit();
  virtual void setup() = 0;
  virtual void run() = 0;
  virtual void finish(UnitResult &R) = 0;
};

/// Builds the unit for program \p W. \p Reference selects the reference
/// path; \p T (null in untraced runs) receives the traced run's spans.
std::unique_ptr<Unit> makeUnit(const BenchConfig &C, const gcache::Workload &W,
                               bool Reference, Tracer *T);

/// setup + run + finish, with any StatusError recorded in R.Error.
UnitResult runUnitOnce(const BenchConfig &C, const gcache::Workload &W,
                       bool Reference);

} // namespace perfbench

#endif // PERFBENCH_UNITS_H
