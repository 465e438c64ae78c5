//===- BatchKernel.h - Columnar batch-mode cache simulation -----*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-mode path of the cache simulator for a single cache. Where
/// the scalar path dispatches one Ref at a time (Cache::access per
/// reference), the batch kernel takes a whole columnar batch
/// (trace/Event.h RefColumns) and simulates it against one cache in one
/// loop: policy flags are hoisted out of the loop, miss counters and the
/// LRU clock accumulate in locals, and plain loads and stores are counted
/// in bulk from a per-batch tally (BatchIndex) that every cache of a bank
/// shares.
///
/// Within a CacheBank, the direct-mapped caches run the all-sizes column
/// engine (memsys/CacheColumn.h), which reads the same tally; this kernel
/// serves set-associative caches, cross-checked caches, and lone caches
/// outside a bank.
///
/// Correctness contract: BatchKernel::run is *bit-identical* to feeding
/// the same references through Cache::access one at a time — same
/// counters, same line array (tags, valid masks, dirty bits, LRU stamps),
/// same LRU clock, same per-block statistics. Batch segmentation is
/// unobservable: any way of cutting a stream into batches produces the
/// same final state, so checkpoint cuts and cancellation drains at batch
/// boundaries stay bit-exact. tests/test_batch_kernel.cpp holds the
/// differential proof against both the scalar path and OracleCache across
/// the write-policy x associativity x block-size matrix.
///
/// The loop handles single-phase batches only. Two kinds of batch take
/// the per-reference scalar path (Cache::access) instead, which is the
/// reference model and so bit-identical by definition: a batch against a
/// cache with a shadow oracle attached (Cache::enableCrossCheck), so the
/// oracle observes every reference in lockstep — --crosscheck trades the
/// batch speedup for validation, by design — and a batch holding both
/// phases. A CacheBank never builds the latter: it flushes at every GC
/// boundary, which is where every collector flips the phase.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_BATCHKERNEL_H
#define GCACHE_MEMSYS_BATCHKERNEL_H

#include "gcache/support/Status.h"
#include "gcache/trace/Event.h"

namespace gcache {

class Cache;

/// Per-batch scratch shared by every cache a batch is simulated against:
/// the batch's reference tallies, computed on first use. Not thread-safe:
/// each ShardPool worker owns its own BatchIndex.
class BatchIndex {
public:
  /// Batch-level reference tallies, independent of any cache
  /// configuration: loads and stores per phase (index 0 mutator,
  /// 1 collector). Computed once per batch and added to every cache's
  /// counters in bulk, so the inner loops never count plain references.
  struct RefTally {
    uint64_t Loads[2] = {0, 0};
    uint64_t Stores[2] = {0, 0};
  };

  /// Points the index at a new batch and invalidates the tally. The batch
  /// must outlive all tally() calls made against it.
  void reset(const RefColumns *B) {
    Batch = B;
    TallyValid = false;
  }

  const RefColumns *batch() const { return Batch; }

  /// The current batch's per-phase load/store tallies, computed on first
  /// request.
  const RefTally &tally();

private:
  const RefColumns *Batch = nullptr;
  RefTally Tally;
  bool TallyValid = false;
};

/// Stateless entry points of the batch-mode simulator.
class BatchKernel {
public:
  /// Simulates every reference of \p Batch against \p C, in order,
  /// bit-identically to per-reference Cache::access. \p Index must have
  /// been reset() to \p Batch (it caches the shared tally).
  /// A mixed-phase batch, or any batch when a shadow oracle is attached to
  /// \p C, takes the scalar path; with the oracle, a hit-class divergence
  /// throws StatusError(Divergence) from inside the batch exactly as it
  /// would per-reference.
  static void run(Cache &C, const RefColumns &Batch, BatchIndex &Index);

  /// Screens untrusted columnar input: the three columns must be the same
  /// length and every Kind/PhaseTag byte must be a valid enumerator.
  /// Columns built by RefColumns::push_back or decoded by the trace layer
  /// always pass; a mutated batch that fails must be rejected, never fed
  /// to run() (the property tests prove reject-or-process-identically).
  static Status validate(const RefColumns &Batch);

private:
  /// The loop over a batch whose references all belong to \p BatchPhase
  /// (0 mutator, 1 collector); \p PerBlock compiles the per-block
  /// statistics in.
  template <bool PerBlock>
  static void runLoop(Cache &C, const RefColumns &Batch,
                      const BatchIndex::RefTally &Tally, unsigned BatchPhase);
};

} // namespace gcache

#endif // GCACHE_MEMSYS_BATCHKERNEL_H
