//===- ShardPool.h - Worker threads for the parallel cache bank -*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker pool behind CacheBank's threaded mode. Each worker owns a
/// disjoint shard of the bank's columns (memsys/CacheColumn.h); the bank
/// publishes fixed-size batches of references and every worker consumes
/// every batch, in publication order, against its own shard. Because each
/// column belongs to exactly one worker and each worker drains its queue
/// FIFO, every cache observes the exact serial reference stream: all
/// counters are
/// deterministic and bit-identical to single-threaded simulation. This is
/// sound for the same reason the one-pass bank itself is (see CacheBank.h):
/// the reference stream never depends on any cache's state.
///
/// Worker failures (a throwing Cache::access, or the injected shard-worker
/// fault site) do not terminate the process: the first exception is
/// captured, the failed worker keeps consuming — but discards — its
/// remaining batches so drain() never wedges, and the exception is
/// rethrown on the submitting thread at the next drain() (i.e. the bank's
/// next flush).
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_SHARDPOOL_H
#define GCACHE_MEMSYS_SHARDPOOL_H

#include "gcache/memsys/BatchKernel.h"
#include "gcache/trace/Event.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gcache {

class CacheColumn;

/// A batch of references in columnar form, shared read-only by all
/// workers; each worker keeps its own BatchIndex scratch, so the batch
/// itself is never written after publication.
using RefBatch = RefColumns;

/// Fixed set of worker threads, each simulating a disjoint shard of columns.
class ShardPool {
public:
  /// Spins up min(\p Threads, Columns.size()) workers over \p Columns,
  /// assigned round-robin.
  ShardPool(const std::vector<CacheColumn *> &Columns, unsigned Threads);

  /// Drains all queued work, then joins the workers.
  ~ShardPool();

  ShardPool(const ShardPool &) = delete;
  ShardPool &operator=(const ShardPool &) = delete;

  unsigned threads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Batch on every worker. Batches are simulated in
  /// submission order within each shard.
  void submit(std::shared_ptr<const RefBatch> Batch);

  /// Blocks until every submitted batch has been fully simulated or
  /// discarded, then rethrows the first captured worker exception, if any
  /// (the failure is consumed: a subsequent drain() succeeds). After a
  /// rethrow the failed shard's counters are meaningless; reset the bank
  /// before reusing it.
  void drain();

private:
  struct Worker {
    std::vector<CacheColumn *> Shard;
    std::deque<std::shared_ptr<const RefBatch>> Queue;
    /// Per-worker scratch for the batch kernel's precomputed address
    /// columns (only its own thread touches it).
    BatchIndex Scratch;
    /// Set once this worker has thrown; it then discards batches instead
    /// of simulating them (only its own thread reads or writes this).
    bool Failed = false;
  };

  void workerLoop(Worker &W);

  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable AllIdle;
  /// (batch, worker) pairs submitted but not yet fully simulated.
  uint64_t Outstanding = 0;
  bool Stopping = false;
  /// First exception any worker threw, captured under Mutex; rethrown
  /// (and cleared) by drain() on the submitting thread.
  std::exception_ptr FirstFailure;
  std::vector<Worker> Workers;
  std::vector<std::thread> Threads;
};

} // namespace gcache

#endif // GCACHE_MEMSYS_SHARDPOOL_H
