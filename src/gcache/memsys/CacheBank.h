//===- CacheBank.h - Simulate many cache configs in one pass ----*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bank of cache simulators fed from a single reference stream. The
/// paper's methodology requires long runs (§2 criticizes short traces), so
/// instead of storing multi-gigabyte traces and replaying them once per
/// configuration, each program run is executed once and every reference is
/// dispatched to all simulated configurations simultaneously. This is
/// valid because the cache configuration never influences the reference
/// stream (program and collector behaviour are cache-independent).
///
/// In its batched modes the bank simulates *columns* (memsys/CacheColumn.h):
/// every direct-mapped cache sharing a block size and write policy is one
/// structure simulated in one pass, so the §4 grid costs five passes per
/// batch instead of forty. Other caches are columns of one. Counters are
/// exact after every flush(); line arrays only after materialize(),
/// saveTo() or auditAll().
///
/// The same independence makes the bank embarrassingly parallel:
/// setThreads() switches it to a threaded mode in which references
/// accumulate into fixed-size batches and a ShardPool of workers — each
/// owning a disjoint shard of whole columns — consumes every batch in
/// order. Each cache still sees the exact serial reference stream, so
/// every counter is deterministic and bit-identical to the single-threaded
/// result; see tests/test_parallel_bank.cpp for the equivalence proof. In
/// threaded mode, call flush() before reading any cache's counters.
///
/// Drain-on-cancel: because every batch boundary is a point of the exact
/// serial stream, cancelling a run (support/Budget.h) needs no special
/// protocol — the cancellation handler simply stops feeding references and
/// calls flush() (or setThreads(0), which drains first). The resulting
/// counters are the serial counters of the reference prefix that was fed,
/// so a drain checkpoint cut there is consistent, auditable, and resumes
/// bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_CACHEBANK_H
#define GCACHE_MEMSYS_CACHEBANK_H

#include "gcache/memsys/Cache.h"
#include "gcache/memsys/CacheColumn.h"
#include "gcache/memsys/ShardPool.h"
#include "gcache/support/Status.h"

#include <memory>
#include <vector>

namespace gcache {

class SnapshotReader;

/// Owns a set of caches and feeds each reference to all of them, either
/// serially (the default) or via a pool of shard workers.
class CacheBank final : public TraceSink {
public:
  /// References per published batch in threaded and serial-batched mode.
  /// Large enough to amortize queue synchronization and the per-batch
  /// column precompute, small enough that a batch of Refs (8 bytes each)
  /// plus its decomposed columns stays memory-friendly.
  static constexpr size_t DefaultBatchRefs = 256 * 1024;

  ~CacheBank() override;

  /// Adds a cache with the given configuration; returns its index. Add
  /// all configurations before calling setThreads().
  size_t addConfig(const CacheConfig &Config);

  /// Adds the full §4 grid: every paper cache size crossed with every
  /// paper block size, using \p Prototype for policies.
  void addPaperGrid(const CacheConfig &Prototype);

  /// Adds one cache per paper cache size at a fixed \p BlockBytes (the §6
  /// experiment uses 64-byte blocks across all sizes).
  void addSizeSweep(const CacheConfig &Prototype, uint32_t BlockBytes);

  /// Switches between serial (\p Threads == 0) and threaded execution
  /// with \p Threads shard workers. Drains any buffered work first, then
  /// re-shards the current cache list, so it may be called between runs;
  /// counters are unaffected. \p BatchRefs tunes the batch size (tests
  /// use small batches to force multi-batch streams).
  void setThreads(unsigned Threads, size_t BatchRefs = DefaultBatchRefs);

  /// Number of worker threads (0 = serial mode).
  unsigned threads() const { return Pool ? Pool->threads() : 0; }

  /// Switches serial mode between immediate per-reference dispatch (the
  /// default) and columnar batch execution: references accumulate into a
  /// RefColumns batch and each full batch is simulated column by column
  /// (CacheColumn::run). Counters are bit-identical either way; as in
  /// threaded mode, call flush() before reading counters. Has no effect
  /// while a pool is active (threaded mode always runs batched); the flag
  /// is remembered and applies once setThreads(0) returns the bank to
  /// serial execution. Returning to per-reference dispatch materializes
  /// every line array.
  void setBatched(bool Enabled, size_t BatchRefsWanted = DefaultBatchRefs);
  bool batched() const { return SerialBatched; }

  /// Attaches a shadow oracle to every cache in the bank (--crosscheck),
  /// including ones added by later addConfig calls. Hit classes are
  /// compared every \p CompareEvery references; flush points additionally
  /// deep-compare full contents and counters (crossCheckNow), throwing
  /// StatusError(Divergence) on mismatch. Must be enabled before
  /// setThreads() — the oracle rides inside each Cache, so the shard
  /// workers drive it for free, but attaching mid-flight would race them.
  void enableCrossCheck(uint64_t CompareEvery = 1);
  bool crossCheckEnabled() const { return CrossCheckEvery != 0; }

  /// First failing deep comparison across the bank, or Ok. Serial callers
  /// may use this directly; flush() calls it in both modes.
  Status crossCheckNow() const;

  /// First failing internal-consistency audit across the bank, or Ok
  /// (Cache::auditState per cache). Drains the workers and materializes
  /// the line arrays first.
  Status auditAll();

  /// Drains the workers, then writes every cache's exact line array (the
  /// column engine keeps some lines stale between flushes). Call before
  /// reading a cache's lines; counters never need it.
  void materialize();

  /// Publishes any buffered references and waits until the workers have
  /// simulated everything. Required before reading counters in threaded
  /// mode; a no-op in serial mode. If a shard worker failed since the last
  /// flush, the captured exception is rethrown here on the calling thread
  /// (the destructor instead swallows failures — it must not throw).
  void flush();

  void onRef(const Ref &R) override {
    if (!Pool && !SerialBatched) {
      for (auto &C : Caches)
        (void)C->access(R);
      return;
    }
    Pending.push_back(R);
    if (Pending.size() >= BatchRefs)
      publish();
  }

  /// Phase boundaries flush so that, at every point a collection starts
  /// or ends, the bank is in exactly the state a serial run would be in —
  /// the §6 accounting (gcInputsFor) and any phase-boundary readers see
  /// unchanged numbers.
  void onGcBegin() override { flush(); }
  void onGcEnd() override { flush(); }

  size_t size() const { return Caches.size(); }
  Cache &cache(size_t I) { return *Caches[I]; }
  const Cache &cache(size_t I) const { return *Caches[I]; }

  /// Finds the cache with the given geometry; returns nullptr if absent.
  const Cache *find(uint32_t SizeBytes, uint32_t BlockBytes) const;

  /// Resets every cache in the bank (drains the workers first).
  void resetAll();

  /// Drains the workers, then appends a "cache-bank" section holding every
  /// cache's full state in bank order.
  void saveTo(SnapshotWriter &W);
  /// Drains the workers, then restores every cache in place from the
  /// snapshot's "cache-bank" section. Loading in place keeps the shard
  /// workers' cache pointers valid, so threaded mode survives a resume.
  /// Geometry or count mismatches, and caches of one column that are not
  /// inclusive, return Corrupt and leave the bank's counters unspecified
  /// (callers discard the run).
  Status loadFrom(const SnapshotReader &R);

private:
  void publish();
  void runSerialBatch();
  /// Re-sorts the caches into columns (after the cache list changes).
  void rebuildColumns();
  /// Marks every column's groups stale after materializing; called on
  /// every switch between per-reference and batched dispatch.
  void releaseColumns();

  std::vector<std::unique_ptr<Cache>> Caches;
  std::vector<CacheColumn> Columns;
  std::unique_ptr<ShardPool> Pool;
  RefBatch Pending;
  BatchIndex SerialScratch; ///< Kernel scratch for serial batched mode.
  size_t BatchRefs = DefaultBatchRefs;
  bool SerialBatched = false;
  uint64_t CrossCheckEvery = 0; ///< 0 = cross-checking off.
};

} // namespace gcache

#endif // GCACHE_MEMSYS_CACHEBANK_H
