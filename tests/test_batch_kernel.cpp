//===- test_batch_kernel.cpp - Batch-kernel differential harness ----------===//
//
// The bit-identity proof for the columnar batch kernel
// (memsys/BatchKernel.h). The kernel's contract is that batch-mode
// simulation is *unobservable*: any stream, cut into batches any way,
// must leave a cache in exactly the state per-reference Cache::access
// leaves it in — same counters, same line array (tags, valid masks,
// dirty bits, LRU stamps), same clock, same per-block statistics.
//
// The harness replays randomized and recorded reference streams through
// three models simultaneously — scalar Cache::access, the batch kernel,
// and OracleCache — and asserts identical counters and LRU state at
// every flush boundary, across the write-policy x associativity x
// block-size matrix. On top of that:
//
//  - batch segmentation invariance (any cut of the same stream agrees);
//  - CacheBank execution-mode equivalence (immediate vs serial batched
//    vs threaded shards), including --crosscheck and --audit semantics;
//  - mutated-batch properties: a corrupt columnar batch is rejected by
//    validate(), and any batch that validates processes identically to
//    the scalar path — never a silent divergence;
//  - checkpoint/resume kills at every batch flush boundary, resumed in
//    either execution mode, finishing bit-identical to a clean replay;
//  - the batched trace reader (TraceStream::nextRefBatch) decodes the
//    exact record stream, and collectTraceBatchStats (the engine of
//    trace_inspect --batch-stats) reports the true batch distribution.
//
//===----------------------------------------------------------------------===//

#include "CacheTestPeer.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/memsys/BatchKernel.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/CacheColumn.h"
#include "gcache/memsys/OracleCache.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// xorshift64* — a deterministic reference stream without <random>.
struct Rng {
  uint64_t S = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
};

/// A mixed-phase reference: clustered addresses (so sets conflict and
/// evict), both kinds, occasional collector phases.
Ref randomRef(Rng &R) {
  uint64_t V = R.next();
  Ref Out;
  Out.Addr = static_cast<Address>((V % 8192) * 4 + (V >> 40) % 4 * 0x10000);
  Out.Kind = (V >> 13) & 1 ? AccessKind::Store : AccessKind::Load;
  Out.ExecPhase = (V >> 17) % 5 == 0 ? Phase::Collector : Phase::Mutator;
  return Out;
}

std::vector<Ref> randomStream(size_t N, uint64_t Seed = 0) {
  Rng R;
  R.S += Seed;
  std::vector<Ref> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomRef(R));
  return Out;
}

/// Feeds [Begin, End) of \p Refs to \p C through the batch kernel in
/// batches of \p BatchRefs.
void runBatched(Cache &C, const std::vector<Ref> &Refs, size_t BatchRefs,
                size_t Begin = 0, size_t End = SIZE_MAX) {
  End = std::min(End, Refs.size());
  RefColumns B;
  BatchIndex Idx;
  for (size_t I = Begin; I < End;) {
    B.clear();
    for (size_t K = 0; K != BatchRefs && I != End; ++K, ++I)
      B.push_back(Refs[I]);
    Idx.reset(&B);
    BatchKernel::run(C, B, Idx);
  }
}

void expectCountersEqual(const CacheCounters &Want, const CacheCounters &Got,
                         const std::string &Where) {
  EXPECT_EQ(Want.Loads, Got.Loads) << Where;
  EXPECT_EQ(Want.Stores, Got.Stores) << Where;
  EXPECT_EQ(Want.FetchMisses, Got.FetchMisses) << Where;
  EXPECT_EQ(Want.NoFetchMisses, Got.NoFetchMisses) << Where;
  EXPECT_EQ(Want.Writebacks, Got.Writebacks) << Where;
  EXPECT_EQ(Want.WriteThroughs, Got.WriteThroughs) << Where;
}

/// The full bit-identity comparison: counters of both phases, the LRU
/// clock, every line (tag, valid mask, dirty, LRU stamp), and the
/// per-block statistics.
void expectStateIdentical(const Cache &Want, const Cache &Got,
                          const std::string &Where) {
  expectCountersEqual(Want.counters(Phase::Mutator),
                      Got.counters(Phase::Mutator), Where + " (mutator)");
  expectCountersEqual(Want.counters(Phase::Collector),
                      Got.counters(Phase::Collector), Where + " (collector)");
  ASSERT_EQ(CacheTestPeer::lruClockOf(Want), CacheTestPeer::lruClockOf(Got))
      << Where;
  const auto &WL = CacheTestPeer::lines(Want);
  const auto &GL = CacheTestPeer::lines(Got);
  ASSERT_EQ(WL.size(), GL.size()) << Where;
  for (size_t I = 0; I != WL.size(); ++I)
    ASSERT_TRUE(CacheTestPeer::sameLine(WL[I], GL[I]))
        << Where << ": line " << I << " differs (tag " << WL[I].Tag << "/"
        << GL[I].Tag << ", valid " << WL[I].ValidMask << "/" << GL[I].ValidMask
        << ", dirty " << WL[I].Dirty << "/" << GL[I].Dirty << ", stamp "
        << WL[I].LruStamp << "/" << GL[I].LruStamp << ")";
  EXPECT_EQ(Want.perBlockRefs(), Got.perBlockRefs()) << Where;
  EXPECT_EQ(Want.perBlockMisses(), Got.perBlockMisses()) << Where;
  EXPECT_EQ(Want.perBlockFetchMisses(), Got.perBlockFetchMisses()) << Where;
}

/// Compares a batch-kernel-driven cache against the independently-driven
/// oracle: counters of both phases, and every set's resident lines in LRU
/// order (the cache's stamp order must equal the oracle's literal list
/// order).
void expectMatchesOracle(const Cache &C, const OracleCache &O,
                         const std::string &Where) {
  expectCountersEqual(O.counters(Phase::Mutator), C.counters(Phase::Mutator),
                      Where + " (oracle, mutator)");
  expectCountersEqual(O.counters(Phase::Collector),
                      C.counters(Phase::Collector),
                      Where + " (oracle, collector)");
  const auto &Lines = CacheTestPeer::lines(C);
  uint32_t Ways = C.config().Ways;
  for (uint32_t S = 0; S != O.numSets(); ++S) {
    std::vector<CacheTestPeer::Line> Resident;
    for (uint32_t W = 0; W != Ways; ++W) {
      const auto &L = Lines[static_cast<size_t>(S) * Ways + W];
      if (L.ValidMask != 0)
        Resident.push_back(L);
    }
    std::sort(Resident.begin(), Resident.end(),
              [](const CacheTestPeer::Line &A, const CacheTestPeer::Line &B) {
                return A.LruStamp < B.LruStamp;
              });
    const auto &Want = O.set(S);
    ASSERT_EQ(Want.size(), Resident.size()) << Where << ": set " << S;
    for (size_t I = 0; I != Want.size(); ++I) {
      EXPECT_EQ(Want[I].Tag, Resident[I].Tag) << Where << ": set " << S;
      EXPECT_EQ(Want[I].ValidMask, Resident[I].ValidMask)
          << Where << ": set " << S;
      EXPECT_EQ(Want[I].Dirty, Resident[I].Dirty) << Where << ": set " << S;
    }
  }
}

std::string tempPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

//===----------------------------------------------------------------------===//
// The headline differential: scalar vs batch vs oracle, policy matrix
//===----------------------------------------------------------------------===//

class BatchKernelMatrix : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(BatchKernelMatrix, ScalarBatchOracleBitIdentical) {
  const CacheConfig Cfg = GetParam();
  SCOPED_TRACE(Cfg.label());
  Cache Scalar(Cfg);
  Cache Batch(Cfg);
  OracleCache Oracle(Cfg);

  // A prime batch size, so flush boundaries land at awkward offsets.
  const size_t BatchRefs = 769;
  std::vector<Ref> Stream = randomStream(40000);

  // The batches cycle through all-mutator, all-collector and mixed. The
  // single-phase batches run the kernel's loop (a collector batch is the
  // one where CollectorFetchOnWrite applies); a mixed batch takes the
  // scalar fallback, which must leave the same state too.
  RefColumns Cols;
  BatchIndex Idx;
  for (size_t I = 0, K = 0; I < Stream.size(); ++K) {
    Cols.clear();
    size_t Boundary = std::min(I + BatchRefs, Stream.size());
    for (; I != Boundary; ++I) {
      if (K % 3 != 2)
        Stream[I].ExecPhase = K % 3 == 0 ? Phase::Mutator : Phase::Collector;
      Cols.push_back(Stream[I]);
      (void)Scalar.access(Stream[I]);
      (void)Oracle.access(Stream[I]);
    }
    Idx.reset(&Cols);
    BatchKernel::run(Batch, Cols, Idx);
    // Every flush boundary: the three models must agree exactly.
    std::string Where = "after " + std::to_string(I) + " refs";
    expectStateIdentical(Scalar, Batch, Where);
    expectMatchesOracle(Batch, Oracle, Where);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_TRUE(Batch.auditState().ok());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, BatchKernelMatrix,
    ::testing::Values(
        // Write-validate, write-back, across associativity and block size.
        CacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 16,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 16, .Ways = 2,
                    .CollectorFetchOnWrite = false},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 64, .Ways = 4,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 256,
                    .CollectorFetchOnWrite = false,
                    .TrackPerBlockStats = true},
        // Write-through hits.
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 64,
                    .WriteHit = WriteHitPolicy::WriteThrough},
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 64, .Ways = 2,
                    .WriteHit = WriteHitPolicy::WriteThrough,
                    .CollectorFetchOnWrite = false,
                    .TrackPerBlockStats = true},
        // Fetch-on-write misses.
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 256, .Ways = 2,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite},
        CacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 16, .Ways = 4,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .WriteHit = WriteHitPolicy::WriteThrough},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 32,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .WriteHit = WriteHitPolicy::WriteThrough,
                    .CollectorFetchOnWrite = false},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 256, .Ways = 4,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .TrackPerBlockStats = true}));

//===----------------------------------------------------------------------===//
// Batch segmentation invariance
//===----------------------------------------------------------------------===//

TEST(BatchKernel, SegmentationIsUnobservable) {
  CacheConfig Cfg{.SizeBytes = 2 << 10, .BlockBytes = 32, .Ways = 2,
                  .TrackPerBlockStats = true};
  std::vector<Ref> Stream = randomStream(20000, /*Seed=*/17);

  Cache Scalar(Cfg);
  for (const Ref &R : Stream)
    (void)Scalar.access(R);

  for (size_t BatchRefs : {size_t(1), size_t(7), size_t(64), size_t(1000),
                           Stream.size()}) {
    Cache Batch(Cfg);
    runBatched(Batch, Stream, BatchRefs);
    expectStateIdentical(Scalar, Batch,
                         "batch size " + std::to_string(BatchRefs));
  }
}

TEST(BatchKernel, EmptyBatchIsANoOp) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
  std::vector<Ref> Warm = randomStream(500);
  runBatched(C, Warm, 100);
  uint64_t Clock = CacheTestPeer::lruClockOf(C);
  RefColumns Empty;
  BatchIndex Idx;
  Idx.reset(&Empty);
  BatchKernel::run(C, Empty, Idx);
  EXPECT_EQ(CacheTestPeer::lruClockOf(C), Clock);
}

//===----------------------------------------------------------------------===//
// The all-sizes column engine (CacheColumn)
//===----------------------------------------------------------------------===//

/// The direct-mapped sizes 1 KB .. 128 KB of one block size: a scaled-down
/// paper column (eight levels) whose lines are cheap to compare often.
std::vector<CacheConfig> smallColumn(CacheConfig Proto) {
  std::vector<CacheConfig> Out;
  for (uint32_t Size = 1 << 10; Size <= 128 << 10; Size *= 2) {
    Proto.SizeBytes = Size;
    Out.push_back(Proto);
  }
  return Out;
}

/// A stream built to stress the column engine on smallColumn caches.
/// Blocks sit 1 KB apart (they collide only in the small levels) plus
/// 256 KB strides (they collide at every level, so one miss evicts
/// across many levels); a third of the references stay on the previous
/// block, so runs mix loads and stores; words are random, so stores
/// leave partial write-validate masks that later loads miss. The phase
/// flips every \p PhaseLen references.
std::vector<Ref> columnStream(size_t N, uint64_t Seed, size_t PhaseLen) {
  Rng R;
  R.S += Seed;
  std::vector<Ref> Out;
  Out.reserve(N);
  Address Block = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t V = R.next();
    if (I == 0 || V % 3 != 0)
      Block = 0x100000 + static_cast<Address>((V >> 8) % 48 * 1024 +
                                              (V >> 16) % 4 * (256 << 10));
    Out.push_back({Block + static_cast<Address>((V >> 24) % 16 * 4),
                   (V >> 32) & 1 ? AccessKind::Store : AccessKind::Load,
                   (I / PhaseLen) % 2 ? Phase::Collector : Phase::Mutator});
  }
  return Out;
}

/// Caches driven through the column engine, each beside a per-reference
/// Cache and an OracleCache of the same configuration fed the same
/// references.
struct ColumnRig {
  std::vector<std::unique_ptr<Cache>> Fast, Slow;
  std::vector<std::unique_ptr<OracleCache>> Oracles;
  std::vector<CacheColumn> Columns;
  BatchIndex Idx;

  explicit ColumnRig(const std::vector<CacheConfig> &Cfgs) {
    std::vector<Cache *> Raw;
    for (const CacheConfig &C : Cfgs) {
      Fast.push_back(std::make_unique<Cache>(C));
      Slow.push_back(std::make_unique<Cache>(C));
      Oracles.push_back(std::make_unique<OracleCache>(C));
      Raw.push_back(Fast.back().get());
    }
    Columns = CacheColumn::partition(Raw);
  }

  void feed(const RefColumns &B) {
    Idx.reset(&B);
    for (CacheColumn &Col : Columns)
      Col.run(B, Idx);
    for (size_t I = 0; I != B.size(); ++I)
      for (size_t K = 0; K != Slow.size(); ++K) {
        (void)Slow[K]->access(B.get(I));
        (void)Oracles[K]->access(B.get(I));
      }
  }

  /// Feeds [Begin, End) in batches of at most \p BatchRefs, cut at every
  /// phase flip so each batch takes the engine's loop.
  void feedStream(const std::vector<Ref> &S, size_t BatchRefs,
                  size_t Begin = 0, size_t End = SIZE_MAX) {
    End = std::min(End, S.size());
    RefColumns B;
    for (size_t I = Begin; I < End;) {
      B.clear();
      const Phase P = S[I].ExecPhase;
      for (; I != End && B.size() != BatchRefs && S[I].ExecPhase == P; ++I)
        B.push_back(S[I]);
      feed(B);
    }
  }

  /// Materializes, then demands bit-identity with the per-reference
  /// caches and agreement with the oracles, cache by cache.
  void check(const std::string &Where) {
    for (CacheColumn &Col : Columns)
      Col.materialize();
    for (size_t K = 0; K != Fast.size(); ++K) {
      const std::string At = Where + ", " + Fast[K]->config().label();
      expectStateIdentical(*Slow[K], *Fast[K], At);
      expectMatchesOracle(*Fast[K], *Oracles[K], At);
      EXPECT_TRUE(Fast[K]->auditState().ok()) << At;
    }
  }
};

class ColumnEngineMatrix : public ::testing::TestWithParam<CacheConfig> {};

// The headline differential: every policy, both phases (collector batches
// are where CollectorFetchOnWrite applies), an occasional mixed-phase
// batch (the per-reference fallback, after which the groups are rebuilt),
// and a full comparison after every batch.
TEST_P(ColumnEngineMatrix, EngineMatchesScalarAndOracleAfterEveryBatch) {
  ColumnRig Rig(smallColumn(GetParam()));
  SCOPED_TRACE(Rig.Fast[0]->config().label());
  ASSERT_EQ(Rig.Columns.size(), 1u);
  std::vector<Ref> Stream = columnStream(24000, /*Seed=*/3, /*PhaseLen=*/1000);
  const size_t BatchRefs = 389;
  unsigned Mixed = 0;
  RefColumns B;
  for (size_t I = 0, K = 0; I < Stream.size(); ++K) {
    B.clear();
    const bool MixedOk = K % 6 == 5;
    for (size_t N = 0; I != Stream.size() && N != BatchRefs; ++I, ++N) {
      if (!MixedOk && N != 0 && Stream[I].ExecPhase != Stream[I - 1].ExecPhase)
        break;
      B.push_back(Stream[I]);
    }
    Mixed += B.PhaseTag.front() != B.PhaseTag.back();
    Rig.feed(B);
    Rig.check("after " + std::to_string(I) + " refs");
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Mixed, 0u) << "the stream must exercise the mixed-phase path";
  const CacheCounters Top = Rig.Slow.back()->totalCounters();
  EXPECT_GT(Top.FetchMisses + Top.NoFetchMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ColumnEngineMatrix,
    ::testing::Values(
        // The paper grid's policy.
        CacheConfig{.BlockBytes = 16},
        CacheConfig{.BlockBytes = 32, .CollectorFetchOnWrite = false,
                    .TrackPerBlockStats = true},
        CacheConfig{.BlockBytes = 64,
                    .WriteHit = WriteHitPolicy::WriteThrough},
        CacheConfig{.BlockBytes = 16,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .TrackPerBlockStats = true},
        CacheConfig{.BlockBytes = 64,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .WriteHit = WriteHitPolicy::WriteThrough},
        CacheConfig{.BlockBytes = 256, .TrackPerBlockStats = true}));

// The cases that break a naive early stop, one reference at a time: a
// partial write-validate mask in the large levels under a full one in the
// small level, a block evicted from the small levels and re-read (so its
// levels split into two groups with different state), and a victim that
// spans every level.
TEST(ColumnEngine, GroupsSplitAndRejoinExactly) {
  CacheConfig Proto{.BlockBytes = 32, .TrackPerBlockStats = true};
  ColumnRig Rig(smallColumn(Proto));
  const Address A = 0x200000;
  auto Ref_ = [](Address Addr, AccessKind K) {
    return Ref{Addr, K, Phase::Mutator};
  };
  const std::vector<Ref> Steps = {
      Ref_(A, AccessKind::Store),          // allocate: word 0 only, everywhere
      Ref_(A + 1024, AccessKind::Load),    // evict A from the 1 KB level
      Ref_(A + 8, AccessKind::Load),       // 1 KB refetches; larger levels
                                           // miss the word (sub-block)
      Ref_(A + 12, AccessKind::Store),     // settles at 1 KB: all dirty
      Ref_(A + 4096, AccessKind::Load),    // evict A from 1-4 KB only
      Ref_(A + 16, AccessKind::Store),     // 1-4 KB hold word 4 only,
                                           // the larger sizes every word
      Ref_(A + 20, AccessKind::Load),      // sub-block miss at 1-4 KB only
      Ref_(A + (256 << 10), AccessKind::Store), // victim spans all levels
      Ref_(A + 24, AccessKind::Load),      // A back from memory everywhere
      Ref_(A + 4, AccessKind::Load),
  };
  // One reference per batch, then the same stream in one batch.
  for (size_t I = 0; I != Steps.size(); ++I) {
    RefColumns B;
    B.push_back(Steps[I]);
    Rig.feed(B);
    Rig.check("step " + std::to_string(I));
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ColumnRig Whole(smallColumn(Proto));
  Whole.feedStream(Steps, Steps.size());
  Whole.check("one batch");
  // The scenario really split the levels: the 1 KB cache fetched A's
  // words while the larger ones took sub-block misses on them.
  EXPECT_NE(Rig.Slow[0]->totalCounters().FetchMisses,
            Rig.Slow[4]->totalCounters().FetchMisses);
  EXPECT_GT(Rig.Slow.back()->totalCounters().Writebacks, 0u);
}

// Non-consecutive sizes (the paper's 32 KB, 256 KB and 4 MB) form one
// column of three levels; a size alone forms a column of one.
TEST(ColumnEngine, SparseAndSingleSizeColumns) {
  std::vector<CacheConfig> Cfgs;
  for (uint32_t Size : {32u << 10, 256u << 10, 4u << 20})
    Cfgs.push_back({.SizeBytes = Size, .BlockBytes = 64});
  Cfgs.push_back({.SizeBytes = 64 << 10, .BlockBytes = 128,
                  .TrackPerBlockStats = true});
  ColumnRig Rig(Cfgs);
  ASSERT_EQ(Rig.Columns.size(), 2u);
  EXPECT_EQ(Rig.Columns[0].caches().size(), 3u);
  EXPECT_EQ(Rig.Columns[1].caches().size(), 1u);

  // Addresses over 16 MB, so the 4 MB level conflicts too.
  Rng R;
  std::vector<Ref> Stream;
  for (size_t I = 0; I != 60000; ++I) {
    uint64_t V = R.next();
    Address Base = static_cast<Address>((V >> 8) % 64 * (32 << 10) +
                                        (V >> 20) % 4 * (4 << 20));
    Stream.push_back({Base + static_cast<Address>((V >> 40) % 64 * 4),
                      (V >> 50) & 1 ? AccessKind::Store : AccessKind::Load,
                      (I / 7000) % 2 ? Phase::Collector : Phase::Mutator});
  }
  Rig.feedStream(Stream, 4099, 0, 30000);
  Rig.check("mid-stream");
  Rig.feedStream(Stream, 4099, 30000);
  Rig.check("end");
}

// The sizes of a column need not share an LRU clock: here the two
// smallest caches are reset after a warm-up (empty caches stay inclusive),
// so their clocks lag the others' by the warm-up's length, and every
// stamp the engine moves between sizes must be translated.
TEST(ColumnEngine, LaggingClocksAreTranslated) {
  ColumnRig Rig(smallColumn({.BlockBytes = 64, .TrackPerBlockStats = true}));
  std::vector<Ref> Stream = columnStream(12000, /*Seed=*/41, /*PhaseLen=*/3000);
  Rig.feedStream(Stream, 1000, 0, 4000);
  Rig.Columns[0].materialize(); // adopt() takes exact lines
  for (size_t K : {0, 1}) {
    Rig.Fast[K]->reset();
    Rig.Slow[K]->reset();
    Rig.Oracles[K]->reset();
  }
  ASSERT_TRUE(Rig.Columns[0].adopt().ok());
  Rig.feedStream(Stream, 1000, 4000);
  Rig.check("after the reset");
  EXPECT_LT(CacheTestPeer::lruClockOf(*Rig.Fast[0]),
            CacheTestPeer::lruClockOf(*Rig.Fast[2]));
}

// Batch segmentation is unobservable: every cut from one reference up
// leaves the same state, including cuts never materialized in between.
TEST(ColumnEngine, EveryBatchCutAgrees) {
  CacheConfig Proto{.BlockBytes = 16, .TrackPerBlockStats = true};
  std::vector<Ref> Stream = columnStream(3000, /*Seed=*/11, /*PhaseLen=*/700);
  std::vector<size_t> Cuts;
  for (size_t N = 1; N <= 48; ++N)
    Cuts.push_back(N);
  for (size_t N : {97, 256, 1000, 3000})
    Cuts.push_back(N);
  for (size_t N : Cuts) {
    ColumnRig Rig(smallColumn(Proto));
    Rig.feedStream(Stream, N);
    Rig.check("batches of " + std::to_string(N));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

// A bank checkpointed mid-stream in batched mode and restored into a
// fresh batched bank continues bit-identically; auditAll passes on the
// way, and a snapshot that breaks inclusion is rejected on load.
TEST(ColumnEngine, SnapshotMidStreamResumesAndAudits) {
  auto MakeBank = [](CacheBank &Bank) {
    for (const CacheConfig &C : smallColumn({.BlockBytes = 32}))
      Bank.addConfig(C);
    Bank.addConfig({.SizeBytes = 8 << 10, .BlockBytes = 32, .Ways = 2});
  };
  std::vector<Ref> Stream = columnStream(20000, /*Seed=*/29, /*PhaseLen=*/2500);
  auto Feed = [&](CacheBank &Bank, size_t Begin, size_t End) {
    for (size_t I = Begin; I != End; ++I) {
      if (I != Begin && Stream[I].ExecPhase != Stream[I - 1].ExecPhase)
        Bank.onGcBegin(); // any marker flushes
      Bank.onRef(Stream[I]);
    }
    Bank.flush();
  };
  CacheBank Scalar, Before;
  MakeBank(Scalar);
  MakeBank(Before);
  Before.setBatched(true, 1000);
  Feed(Scalar, 0, Stream.size());
  Feed(Before, 0, 11111);
  EXPECT_TRUE(Before.auditAll().ok());
  SnapshotWriter W;
  Before.saveTo(W);
  SnapshotReader Rd;
  ASSERT_TRUE(Rd.openBuffer(W.serialize()).ok());

  CacheBank After;
  MakeBank(After);
  After.setBatched(true, 1000);
  ASSERT_TRUE(After.loadFrom(Rd).ok());
  Feed(After, 11111, Stream.size());
  EXPECT_TRUE(After.auditAll().ok());
  for (size_t I = 0; I != Scalar.size(); ++I)
    expectStateIdentical(Scalar.cache(I), After.cache(I),
                         Scalar.cache(I).config().label());
  // The saving bank can keep running after its snapshot too.
  Feed(Before, 11111, Stream.size());
  Before.materialize();
  for (size_t I = 0; I != Scalar.size(); ++I)
    expectStateIdentical(Scalar.cache(I), Before.cache(I),
                         Scalar.cache(I).config().label() + " (saver)");

  // Break inclusion in the line the 2 KB cache holds for a block of the
  // 1 KB cache: drop the block, or keep it under another LRU stamp. Each
  // cache passes its own audit; the column does not.
  CacheTestPeer::Line *Victim = nullptr;
  for (size_t I = 0; I != CacheTestPeer::numLines(Scalar.cache(0)); ++I)
    if (CacheTestPeer::line(Scalar.cache(0), I).ValidMask != 0) {
      const auto &L = CacheTestPeer::line(Scalar.cache(0), I);
      uint32_t Block = L.Tag * 32 + static_cast<uint32_t>(I); // 32 sets
      Victim = &CacheTestPeer::line(Scalar.cache(1), Block % 64);
      break;
    }
  ASSERT_NE(Victim, nullptr);
  ASSERT_GT(Victim->LruStamp, 1u);
  for (int Breakage = 0; Breakage != 2; ++Breakage) {
    const CacheTestPeer::Line Saved = *Victim;
    if (Breakage == 0)
      Victim->Tag ^= 1;
    else
      --Victim->LruStamp;
    SnapshotWriter Bad;
    Scalar.saveTo(Bad);
    *Victim = Saved;
    SnapshotReader BadRd;
    ASSERT_TRUE(BadRd.openBuffer(Bad.serialize()).ok());
    CacheBank Rejects;
    MakeBank(Rejects);
    Status S = Rejects.loadFrom(BadRd);
    EXPECT_EQ(S.code(), StatusCode::Corrupt) << Breakage << ": " << S.message();
  }
}

//===----------------------------------------------------------------------===//
// The shared per-batch tally
//===----------------------------------------------------------------------===//

TEST(BatchIndex, TallyIsCachedAndInvalidatedByReset) {
  RefColumns B1, B2;
  Rng R;
  for (int I = 0; I != 64; ++I)
    B1.push_back(randomRef(R));
  B2.push_back({0x1234, AccessKind::Store, Phase::Collector});

  BatchIndex Idx;
  Idx.reset(&B1);
  uint64_t Loads[2] = {0, 0}, Stores[2] = {0, 0};
  for (size_t I = 0; I != B1.size(); ++I) {
    const Ref X = B1.get(I);
    (X.Kind == AccessKind::Store ? Stores : Loads)[static_cast<unsigned>(
        X.ExecPhase)]++;
  }
  for (unsigned P = 0; P != 2; ++P) {
    EXPECT_EQ(Idx.tally().Loads[P], Loads[P]);
    EXPECT_EQ(Idx.tally().Stores[P], Stores[P]);
  }
  // Scribble on the cached tally: while the batch is current, repeated
  // tally() calls must return the cache, not recompute.
  const_cast<BatchIndex::RefTally &>(Idx.tally()).Loads[0] += 1000;
  EXPECT_EQ(Idx.tally().Loads[0], Loads[0] + 1000);

  // reset() invalidates: the tally is recomputed for the new batch.
  Idx.reset(&B2);
  EXPECT_EQ(Idx.tally().Stores[1], 1u);
  EXPECT_EQ(Idx.tally().Loads[0] + Idx.tally().Loads[1] +
                Idx.tally().Stores[0],
            0u);
  Idx.reset(&B1);
  EXPECT_EQ(Idx.tally().Loads[0], Loads[0]);
}

//===----------------------------------------------------------------------===//
// Untrusted-batch validation and the mutated-batch property
//===----------------------------------------------------------------------===//

TEST(BatchValidate, AcceptsWellFormedRejectsCorrupt) {
  RefColumns B;
  Rng R;
  for (int I = 0; I != 100; ++I)
    B.push_back(randomRef(R));
  EXPECT_TRUE(BatchKernel::validate(B).ok());

  RefColumns Ragged = B;
  Ragged.Kind.pop_back();
  EXPECT_EQ(BatchKernel::validate(Ragged).code(),
            StatusCode::InvalidArgument);

  RefColumns BadKind = B;
  BadKind.Kind[42] = 7;
  EXPECT_EQ(BatchKernel::validate(BadKind).code(),
            StatusCode::InvalidArgument);

  RefColumns BadPhase = B;
  BadPhase.PhaseTag[13] = 0xff;
  EXPECT_EQ(BatchKernel::validate(BadPhase).code(),
            StatusCode::InvalidArgument);
}

// The fuzz property: mutate batches arbitrarily; every mutant is either
// rejected by validate() or processes bit-identically to the scalar
// replay of the same (still well-formed) columns. A silent divergence —
// validate() passing but the kernel disagreeing with the scalar path —
// is the one outcome that must never happen.
TEST(BatchKernelProperty, MutatedBatchesRejectOrProcessIdentically) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2,
                  .TrackPerBlockStats = true};
  Rng R;
  unsigned Rejected = 0, Processed = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    RefColumns B;
    size_t N = 1 + R.next() % 200;
    for (size_t I = 0; I != N; ++I)
      B.push_back(randomRef(R));

    // One random mutation per trial, structural or value-level.
    switch (R.next() % 6) {
    case 0:
      B.Kind.pop_back();
      break;
    case 1:
      B.PhaseTag.resize(B.PhaseTag.size() - R.next() % N);
      break;
    case 2:
      B.Addr.push_back(static_cast<Address>(R.next()));
      break;
    case 3:
      // % 4: half the pokes are in-range rewrites, half invalid bytes, so
      // both the reject path and the process path see value mutations.
      B.Kind[R.next() % N] = static_cast<uint8_t>(R.next() % 4);
      break;
    case 4:
      B.PhaseTag[R.next() % N] = static_cast<uint8_t>(R.next() % 4);
      break;
    case 5:
      B.Addr[R.next() % N] = static_cast<Address>(R.next());
      break;
    }

    // The ground truth the kernel must match.
    bool WellFormed = B.Kind.size() == B.Addr.size() &&
                      B.PhaseTag.size() == B.Addr.size();
    for (size_t I = 0; WellFormed && I != B.size(); ++I)
      WellFormed = B.Kind[I] <= 1 && B.PhaseTag[I] <= 1;

    Status V = BatchKernel::validate(B);
    EXPECT_EQ(V.ok(), WellFormed) << "trial " << Trial;
    if (!V.ok()) {
      ++Rejected;
      continue;
    }
    ++Processed;
    Cache Scalar(Cfg), Batch(Cfg);
    for (size_t I = 0; I != B.size(); ++I)
      (void)Scalar.access(B.get(I));
    BatchIndex Idx;
    Idx.reset(&B);
    BatchKernel::run(Batch, B, Idx);
    expectStateIdentical(Scalar, Batch, "trial " + std::to_string(Trial));
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The mutation mix must actually exercise both outcomes.
  EXPECT_GT(Rejected, 50u);
  EXPECT_GT(Processed, 50u);
}

//===----------------------------------------------------------------------===//
// CacheBank execution modes: immediate vs serial batched vs threaded
//===----------------------------------------------------------------------===//

void addMixedBank(CacheBank &Bank) {
  Bank.addConfig({.SizeBytes = 16 << 10, .BlockBytes = 32,
                  .TrackPerBlockStats = true});
  Bank.addConfig({.SizeBytes = 8 << 10, .BlockBytes = 64, .Ways = 2});
  Bank.addConfig({.SizeBytes = 4 << 10, .BlockBytes = 16,
                  .WriteMiss = WriteMissPolicy::FetchOnWrite,
                  .WriteHit = WriteHitPolicy::WriteThrough});
  Bank.addConfig({.SizeBytes = 64 << 10, .BlockBytes = 64});
}

/// Feeds the stream with a GC phase in the middle (markers flush the
/// bank in every mode).
void feedWithGcBoundary(CacheBank &Bank, const std::vector<Ref> &Stream) {
  size_t Half = Stream.size() / 2;
  for (size_t I = 0; I != Half; ++I)
    Bank.onRef(Stream[I]);
  Bank.onGcBegin();
  for (size_t I = Half; I != Stream.size(); ++I)
    Bank.onRef(Stream[I]);
  Bank.onGcEnd();
  Bank.flush();
}

TEST(BatchBank, ExecutionModesAreBitIdentical) {
  std::vector<Ref> Stream = randomStream(60000, /*Seed=*/5);

  CacheBank Immediate;
  addMixedBank(Immediate);
  ASSERT_FALSE(Immediate.batched());
  feedWithGcBoundary(Immediate, Stream);

  CacheBank Batched;
  addMixedBank(Batched);
  Batched.setBatched(true, /*BatchRefsWanted=*/1536);
  ASSERT_TRUE(Batched.batched());
  feedWithGcBoundary(Batched, Stream);

  CacheBank Threaded;
  addMixedBank(Threaded);
  Threaded.setThreads(3, /*BatchRefs=*/1536);
  feedWithGcBoundary(Threaded, Stream);
  Threaded.setThreads(0);
  Batched.materialize();

  for (size_t I = 0; I != Immediate.size(); ++I) {
    std::string Where = Immediate.cache(I).config().label();
    expectStateIdentical(Immediate.cache(I), Batched.cache(I),
                         Where + " (serial batched)");
    expectStateIdentical(Immediate.cache(I), Threaded.cache(I),
                         Where + " (threaded)");
  }
  EXPECT_TRUE(Batched.auditAll().ok());
}

TEST(BatchBank, SetBatchedMidStreamDrainsPendingFirst) {
  std::vector<Ref> Stream = randomStream(5000, /*Seed=*/23);
  CacheBank Immediate;
  addMixedBank(Immediate);
  for (const Ref &R : Stream)
    Immediate.onRef(R);

  CacheBank Toggled;
  addMixedBank(Toggled);
  Toggled.setBatched(true, 512);
  for (size_t I = 0; I != 2500; ++I)
    Toggled.onRef(Stream[I]); // 2500 is not a batch boundary (4*512=2048)
  Toggled.setBatched(false);  // must drain the 452 pending refs
  for (size_t I = 2500; I != Stream.size(); ++I)
    Toggled.onRef(Stream[I]);

  for (size_t I = 0; I != Immediate.size(); ++I)
    expectStateIdentical(Immediate.cache(I), Toggled.cache(I),
                         Immediate.cache(I).config().label());
}

//===----------------------------------------------------------------------===//
// --crosscheck and --audit semantics in batch mode
//===----------------------------------------------------------------------===//

TEST(BatchCrossCheck, CleanStreamPassesWithOraclesAttached) {
  CacheBank Bank;
  addMixedBank(Bank);
  Bank.enableCrossCheck(1);
  Bank.setBatched(true, 1024);
  std::vector<Ref> Stream = randomStream(20000, /*Seed=*/31);
  feedWithGcBoundary(Bank, Stream); // flush deep-compares vs the oracles
  EXPECT_TRUE(Bank.crossCheckNow().ok());
  EXPECT_TRUE(Bank.auditAll().ok());

  // The cross-checked batch path must also still count correctly: compare
  // against a plain immediate bank.
  CacheBank Plain;
  addMixedBank(Plain);
  feedWithGcBoundary(Plain, Stream);
  for (size_t I = 0; I != Bank.size(); ++I)
    expectStateIdentical(Plain.cache(I), Bank.cache(I),
                         Plain.cache(I).config().label());
}

TEST(BatchCrossCheck, CorruptedStateStillFiresInsideABatch) {
  const CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  Cache C(Cfg);
  C.enableCrossCheck(1);
  std::vector<Ref> Warm = randomStream(2000, /*Seed=*/41);
  runBatched(C, Warm, 256); // falls back to the per-ref oracle path

  // Corrupt a resident line's tag behind the oracle's back, then load a
  // valid word of that line's *original* block: the corrupted cache
  // misses where the oracle hits, so Divergence must be raised from
  // inside BatchKernel::run, exactly as the scalar path would raise it.
  const uint32_t NumSets = Cfg.SizeBytes / Cfg.BlockBytes; // direct-mapped
  size_t Idx = SIZE_MAX;
  for (size_t I = 0; I != CacheTestPeer::numLines(C); ++I)
    if (CacheTestPeer::line(C, I).ValidMask != 0) {
      Idx = I;
      break;
    }
  ASSERT_NE(Idx, SIZE_MAX);
  CacheTestPeer::Line &L = CacheTestPeer::line(C, Idx);
  uint32_t ValidWord = 0;
  while (!(L.ValidMask & (1ull << ValidWord)))
    ++ValidWord;
  Address BlockIdx = (L.Tag * NumSets) + static_cast<Address>(Idx);
  Ref Poison{BlockIdx * Cfg.BlockBytes + ValidWord * 4, AccessKind::Load,
             Phase::Mutator};
  ASSERT_EQ(C.setIndexOf(Poison.Addr), static_cast<uint32_t>(Idx));
  L.Tag ^= 0x5a;

  RefColumns B;
  B.push_back(Poison);
  BatchIndex BatchIdx;
  BatchIdx.reset(&B);
  EXPECT_THROW(BatchKernel::run(C, B, BatchIdx), StatusError);
}

//===----------------------------------------------------------------------===//
// Recorded traces: batched replay of a real program run
//===----------------------------------------------------------------------===//

/// Records one small nbody run (Cheney, small semispaces so the trace
/// contains collector phases) once per process.
const std::string &recordedTracePath() {
  static const std::string Path = [] {
    std::string P = tempPath("batch_nbody.gct");
    std::string Mine = P + "." + std::to_string(::getpid());
    TraceWriter W;
    EXPECT_TRUE(W.open(Mine).ok());
    ExperimentOptions O;
    O.Scale = 0.05;
    O.Gc = GcKind::Cheney;
    O.SemispaceBytes = 512 << 10;
    O.Grid = CacheGridKind::None;
    O.ExtraSinks = {&W};
    ProgramRun Run = runProgram(nbodyWorkload(), O);
    EXPECT_GT(Run.Collections, 0u) << "trace must contain GC phases";
    EXPECT_TRUE(W.close().ok());
    EXPECT_EQ(std::rename(Mine.c_str(), P.c_str()), 0);
    return P;
  }();
  return Path;
}

TEST(BatchRecordedTrace, BatchedReplayMatchesScalarReplay) {
  CacheBank Scalar;
  addMixedBank(Scalar);
  CountingSink ScalarCounts;
  Expected<ReplayCheckpointResult> A =
      replayTraceCheckpointed(recordedTracePath(), Scalar, ScalarCounts, {});
  ASSERT_TRUE(A.ok()) << A.status().message();

  CacheBank Batched;
  addMixedBank(Batched);
  Batched.setBatched(true, 777);
  CountingSink BatchedCounts;
  Expected<ReplayCheckpointResult> B =
      replayTraceCheckpointed(recordedTracePath(), Batched, BatchedCounts, {});
  ASSERT_TRUE(B.ok()) << B.status().message();

  EXPECT_EQ(A->RecordsReplayed, B->RecordsReplayed);
  EXPECT_EQ(ScalarCounts.totalRefs(), BatchedCounts.totalRefs());
  Batched.materialize();
  for (size_t I = 0; I != Scalar.size(); ++I)
    expectStateIdentical(Scalar.cache(I), Batched.cache(I),
                         Scalar.cache(I).config().label());
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume killed at every batch flush boundary
//===----------------------------------------------------------------------===//

/// Writes a small synthetic trace with refs, allocations, and GC phases.
std::string makeSyntheticTrace(const char *Name, unsigned Refs) {
  std::string Path = tempPath(std::string(Name) + "." +
                              std::to_string(::getpid()) + ".gct");
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  Rng R;
  for (unsigned I = 0; I != Refs; ++I) {
    W.onRef(randomRef(R));
    if (I % 1000 == 999) {
      W.onGcBegin();
      for (int K = 0; K != 50; ++K) {
        Ref G = randomRef(R);
        G.ExecPhase = Phase::Collector;
        W.onRef(G);
      }
      W.onGcEnd();
    }
    if (I % 300 == 299)
      W.onAlloc(static_cast<Address>(R.next()), 16);
  }
  EXPECT_TRUE(W.close().ok());
  return Path;
}

/// The kill-sweep trace: small enough that a replay per batch boundary is
/// cheap, with GC markers and allocations interleaving the ref runs so
/// batch flushes happen both at capacity and at markers.
const std::string &killSweepTracePath() {
  static const std::string Path = makeSyntheticTrace("batch_killsweep", 10000);
  return Path;
}

void addSmallBank(CacheBank &Bank) {
  Bank.addConfig({.SizeBytes = 16 << 10, .BlockBytes = 32,
                  .TrackPerBlockStats = true});
  Bank.addConfig({.SizeBytes = 64 << 10, .BlockBytes = 64});
}

void configureBankMode(CacheBank &Bank, bool Batched, size_t BatchRefs) {
  if (Batched)
    Bank.setBatched(true, BatchRefs);
}

/// Kills a checkpointed replay of the recorded trace after \p KillAfter
/// records (checkpointing every \p BatchRefs records, i.e. at every batch
/// flush), then resumes in fresh objects and checks against the clean
/// state. KillBatched / ResumeBatched select the execution mode of each
/// leg, so scalar-cut checkpoints resume into batched replay and vice
/// versa.
void killAndResume(uint64_t KillAfter, size_t BatchRefs, bool KillBatched,
                   bool ResumeBatched, const CacheBank &CleanBank,
                   const CountingSink &CleanCounts) {
  std::string Snap = tempPath("batch_kill." + std::to_string(::getpid()) +
                              ".snap");
  std::remove(Snap.c_str());
  SCOPED_TRACE("kill after record " + std::to_string(KillAfter) +
               (KillBatched ? " batched" : " scalar") + " -> " +
               (ResumeBatched ? "batched" : "scalar"));

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = BatchRefs;
  Opts.StopAfterRecords = KillAfter;
  {
    CacheBank Bank;
    addSmallBank(Bank);
    configureBankMode(Bank, KillBatched, BatchRefs);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(killSweepTracePath(), Bank, Counts, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::Aborted);
  }

  CacheBank Bank;
  addSmallBank(Bank);
  configureBankMode(Bank, ResumeBatched, BatchRefs);
  CountingSink Counts;
  ReplayCheckpointOptions ResumeOpts;
  ResumeOpts.SnapshotPath = Snap;
  ResumeOpts.EveryRefs = BatchRefs;
  ResumeOpts.Resume = true;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(killSweepTracePath(), Bank, Counts, ResumeOpts);
  ASSERT_TRUE(R.ok()) << R.status().message();
  ASSERT_EQ(CleanBank.size(), Bank.size());
  Bank.materialize();
  for (size_t I = 0; I != CleanBank.size(); ++I)
    expectStateIdentical(CleanBank.cache(I), Bank.cache(I),
                         CleanBank.cache(I).config().label());
  EXPECT_EQ(CleanCounts.totalRefs(), Counts.totalRefs());
  EXPECT_EQ(CleanCounts.mutatorRefs(), Counts.mutatorRefs());
  EXPECT_EQ(CleanCounts.collections(), Counts.collections());
  std::remove(Snap.c_str());
}

TEST(BatchCheckpoint, KillAtEveryBatchFlushResumesBitIdentical) {
  const size_t BatchRefs = 512;

  // The scalar clean replay is the ground truth for every resumed run.
  CacheBank CleanBank;
  addSmallBank(CleanBank);
  CountingSink CleanCounts;
  Expected<ReplayCheckpointResult> Clean =
      replayTraceCheckpointed(killSweepTracePath(), CleanBank, CleanCounts, {});
  ASSERT_TRUE(Clean.ok()) << Clean.status().message();
  uint64_t Records = Clean->RecordsReplayed;
  ASSERT_GT(Records, 2 * BatchRefs) << "trace too short for a kill sweep";

  // Kill at every batch flush boundary (checkpoints are cut every
  // BatchRefs records, so each kill lands one batch after a cut) plus
  // just before/after one boundary, batched killed and batched resumed.
  for (uint64_t Kill = BatchRefs; Kill < Records; Kill += BatchRefs)
    killAndResume(Kill, BatchRefs, /*KillBatched=*/true,
                  /*ResumeBatched=*/true, CleanBank, CleanCounts);
  killAndResume(BatchRefs + 1, BatchRefs, true, true, CleanBank, CleanCounts);
  killAndResume(2 * BatchRefs - 1, BatchRefs, true, true, CleanBank,
                CleanCounts);
}

TEST(BatchCheckpoint, CrossModeKillAndResumeAreBitIdentical) {
  const size_t BatchRefs = 512;
  CacheBank CleanBank;
  addSmallBank(CleanBank);
  CountingSink CleanCounts;
  Expected<ReplayCheckpointResult> Clean =
      replayTraceCheckpointed(killSweepTracePath(), CleanBank, CleanCounts, {});
  ASSERT_TRUE(Clean.ok()) << Clean.status().message();
  uint64_t Mid = (Clean->RecordsReplayed / (2 * BatchRefs)) * BatchRefs;
  ASSERT_GT(Mid, 0u);

  // A checkpoint cut by a batched replay must resume into a scalar
  // replay bit-identically, and vice versa — the snapshot format cannot
  // know which execution mode produced it.
  killAndResume(Mid, BatchRefs, /*KillBatched=*/true, /*ResumeBatched=*/false,
                CleanBank, CleanCounts);
  killAndResume(Mid, BatchRefs, /*KillBatched=*/false, /*ResumeBatched=*/true,
                CleanBank, CleanCounts);
}

//===----------------------------------------------------------------------===//
// The batched trace reader and the --batch-stats engine
//===----------------------------------------------------------------------===//


TEST(BatchedReader, NextRefBatchDecodesTheExactRecordStream) {
  std::string Path = makeSyntheticTrace("batch_reader", 5000);

  // Ground truth: per-record decode.
  std::vector<Ref> WantRefs;
  std::vector<TraceRecord::Kind> WantOps;
  {
    TraceStream S;
    ASSERT_TRUE(S.open(Path).ok());
    TraceRecord Rec;
    while (S.next(Rec)) {
      WantOps.push_back(Rec.Op);
      if (Rec.Op == TraceRecord::Kind::Ref)
        WantRefs.push_back(Rec.R);
    }
  }

  // Batched decode: runs of refs via nextRefBatch, markers via next().
  TraceStream S;
  ASSERT_TRUE(S.open(Path).ok());
  std::vector<Ref> GotRefs;
  uint64_t Others = 0;
  RefColumns B;
  TraceRecord Rec;
  for (;;) {
    B.clear();
    size_t N = S.nextRefBatch(B, 257);
    EXPECT_TRUE(BatchKernel::validate(B).ok());
    for (size_t I = 0; I != N; ++I)
      GotRefs.push_back(B.get(I));
    if (N == 257)
      continue;
    if (!S.next(Rec))
      break;
    EXPECT_NE(Rec.Op, TraceRecord::Kind::Ref)
        << "nextRefBatch must consume every run of refs completely";
    ++Others;
  }
  ASSERT_EQ(WantRefs.size(), GotRefs.size());
  for (size_t I = 0; I != WantRefs.size(); ++I) {
    ASSERT_EQ(WantRefs[I].Addr, GotRefs[I].Addr) << "ref " << I;
    ASSERT_EQ(WantRefs[I].Kind, GotRefs[I].Kind) << "ref " << I;
    ASSERT_EQ(WantRefs[I].ExecPhase, GotRefs[I].ExecPhase) << "ref " << I;
  }
  EXPECT_EQ(Others, WantOps.size() - WantRefs.size());
  EXPECT_EQ(S.recordIndex(), WantOps.size());
  std::remove(Path.c_str());
}

TEST(BatchedReader, BatchStatsMatchAManualScan) {
  std::string Path = makeSyntheticTrace("batch_stats", 4000);
  const size_t Cap = 300;

  // Manual segmentation from the per-record stream.
  TraceBatchStats Want;
  {
    TraceStream S;
    ASSERT_TRUE(S.open(Path).ok());
    TraceRecord Rec;
    uint64_t Run = 0;
    auto CloseBatch = [&](bool CutByCap) {
      if (Run == 0)
        return;
      ++Want.Batches;
      if (CutByCap)
        ++Want.FullBatches;
      Want.MinBatch =
          Want.Batches == 1 ? Run : std::min<uint64_t>(Want.MinBatch, Run);
      Want.MaxBatch = std::max<uint64_t>(Want.MaxBatch, Run);
      Run = 0;
    };
    while (S.next(Rec)) {
      if (Rec.Op == TraceRecord::Kind::Ref) {
        ++Want.Refs;
        if (Rec.R.ExecPhase == Phase::Collector)
          ++Want.CollectorRefs;
        if (Rec.R.Kind == AccessKind::Store)
          ++Want.Stores;
        if (++Run == Cap)
          CloseBatch(/*CutByCap=*/true);
      } else {
        ++Want.OtherRecords;
        CloseBatch(/*CutByCap=*/false);
      }
    }
    CloseBatch(false);
    Want.Loads = Want.Refs - Want.Stores;
    Want.MutatorRefs = Want.Refs - Want.CollectorRefs;
  }

  TraceStream S;
  ASSERT_TRUE(S.open(Path).ok());
  TraceBatchStats Got = collectTraceBatchStats(S, Cap);
  EXPECT_EQ(Want.Refs, Got.Refs);
  EXPECT_EQ(Want.OtherRecords, Got.OtherRecords);
  EXPECT_EQ(Want.Batches, Got.Batches);
  EXPECT_EQ(Want.FullBatches, Got.FullBatches);
  EXPECT_EQ(Want.MinBatch, Got.MinBatch);
  EXPECT_EQ(Want.MaxBatch, Got.MaxBatch);
  EXPECT_EQ(Want.MutatorRefs, Got.MutatorRefs);
  EXPECT_EQ(Want.CollectorRefs, Got.CollectorRefs);
  EXPECT_EQ(Want.Loads, Got.Loads);
  EXPECT_EQ(Want.Stores, Got.Stores);
  EXPECT_GT(Got.Batches, 0u);
  EXPECT_GT(Got.OtherRecords, 0u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The Experiment wiring: batched runs equal per-reference runs
//===----------------------------------------------------------------------===//

TEST(BatchExperiment, BatchedRunMatchesScalarRun) {
  ExperimentOptions Opts;
  Opts.Scale = 0.05;
  Opts.Grid = CacheGridKind::SizeSweep;
  Opts.BatchRefs = 4096;
  Opts.Gc = GcKind::Cheney; // collects, so collector batches run too
  Opts.SemispaceBytes = 512 << 10;
  // The reference: one scalar Cache per sweep configuration, wired onto
  // the run's trace bus so it sees every reference one at a time.
  std::vector<std::unique_ptr<Cache>> Scalar;
  for (uint32_t Size : paperCacheSizes()) {
    CacheConfig Cfg;
    Cfg.SizeBytes = Size;
    Cfg.BlockBytes = Opts.SweepBlockBytes;
    Cfg.WriteMiss = Opts.WriteMiss;
    Scalar.push_back(std::make_unique<Cache>(Cfg));
    Opts.ExtraSinks.push_back(Scalar.back().get());
  }
  ProgramRun Run = runProgram(nbodyWorkload(), Opts);

  ASSERT_EQ(Run.Bank->size(), Scalar.size());
  EXPECT_GT(Run.Bank->cache(0).counters(Phase::Collector).Loads, 0u)
      << "the run must collect, so collector batches reach the kernel";
  for (size_t I = 0; I != Scalar.size(); ++I) {
    ASSERT_EQ(Scalar[I]->config().label(), Run.Bank->cache(I).config().label());
    expectStateIdentical(*Scalar[I], Run.Bank->cache(I),
                         Scalar[I]->config().label());
  }
  // The returned bank must be back in immediate mode so callers can keep
  // feeding it without flushing.
  EXPECT_FALSE(Run.Bank->batched());
}

} // namespace
