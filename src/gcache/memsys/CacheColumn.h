//===- CacheColumn.h - All sizes of one block size in one pass -*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-pass engine behind CacheBank's batched modes. A *column* is
/// every direct-mapped cache of a bank that shares one block size and one
/// write policy (the paper's §4 grid has five, of eight sizes each).
/// Bit-selection indexing makes such caches inclusive (Mattson et al.
/// 1970; Hill & Smith 1989): a block held by the cache with 2^k sets is
/// held by every larger one. A reference that finds its block in the
/// smallest cache (level 0) hits the block everywhere, so the engine can
/// usually stop there. DESIGN.md ("One pass per block-size column") gives
/// the argument; the invariants are:
///
///  - Block *state* is not inclusive (a write-validate valid mask or a
///    dirty bit can differ between sizes), so the levels that installed
///    a block together form a *group*. Only the group's lowest line is
///    current; it records the group's top level (Line::Top). The lowest
///    group of a block holds its true LRU stamp; higher groups' stamps
///    may lag.
///  - The lowest line of every group carries a *cover* of the levels
///    above it: the words valid at all of them (Line::Cover) and whether
///    all of them are dirty (Line::HigherDirty). A reference stops at the
///    first group whose cover says it cannot change a higher level, and
///    otherwise applies itself to the next group up.
///  - A level-0 miss walks up to the first level holding the block,
///    evicting on the way. Evicting a block from its lowest level moves
///    that line's state up one level to the rest of its group, or, if the
///    group is gone, its LRU stamp to the block's next group.
///
/// Counters and per-block statistics are exact after every batch (group
/// misses go through per-batch difference arrays). Line arrays are exact
/// only after materialize(); adopt() rebuilds the groups from exact lines
/// and rejects lines that break inclusion. After materialize(), every
/// cache of a column is bit-identical to feeding the same references
/// through Cache::access; tests/test_batch_kernel.cpp holds the
/// differential proof against the reference model and OracleCache.
///
/// Caches that cannot join a column (set-associative, or with a shadow
/// oracle attached) form columns of their own, which run BatchKernel::run.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_CACHECOLUMN_H
#define GCACHE_MEMSYS_CACHECOLUMN_H

#include "gcache/memsys/Cache.h"
#include "gcache/support/Status.h"

#include <vector>

namespace gcache {

class BatchIndex;

/// The caches of one column, smallest first, and their shared state.
class CacheColumn {
public:
  /// Sorts \p Caches into columns. Direct-mapped caches without a shadow
  /// oracle share a column when their block size and write policies
  /// match and their sizes differ; every other cache is a column alone.
  static std::vector<CacheColumn> partition(const std::vector<Cache *> &Caches);

  /// Simulates every reference of \p Batch against every cache of the
  /// column. \p Index must have been reset() to \p Batch. A batch holding
  /// both phases takes the per-reference path of each cache.
  void run(const RefColumns &Batch, BatchIndex &Index);

  /// Writes every cache's exact line array. The groups stay valid, so the
  /// column can keep running afterwards.
  void materialize();

  /// Hands the column to the per-reference path: materializes, and marks
  /// the groups stale so the next run() rebuilds them.
  void release() {
    materialize();
    Grouped = false;
  }

  /// Takes the caches' lines as exact (after a snapshot load or a reset)
  /// and rebuilds the groups from them. Returns Corrupt if the lines
  /// break inclusion: a block held by one level and not by the next
  /// larger one, or held there with a different LRU stamp.
  Status adopt();

  const std::vector<Cache *> &caches() const { return Levels; }

private:
  template <bool PerBlock> struct Pass;

  std::vector<Cache *> Levels; ///< Ascending size.
  bool Engine = false;  ///< False for a column of one unsupported cache.
  bool Exact = true;    ///< Every line holds its true state.
  bool Grouped = false; ///< The group bookkeeping is current.
};

} // namespace gcache

#endif // GCACHE_MEMSYS_CACHECOLUMN_H
