//===- BatchKernel.cpp - Columnar batch-mode cache simulation --------------===//

#include "gcache/memsys/BatchKernel.h"

#include "gcache/memsys/Cache.h"

#include <bit>
#include <cassert>

using namespace gcache;

const BatchIndex::RefTally &BatchIndex::tally() {
  assert(Batch && "BatchIndex::reset must point at a batch first");
  if (TallyValid)
    return Tally;
  Tally = RefTally();
  const size_t N = Batch->size();
  const uint8_t *Kind = Batch->Kind.data();
  const uint8_t *PhaseTag = Batch->PhaseTag.data();
  for (size_t I = 0; I != N; ++I) {
    const unsigned P = PhaseTag[I] & 1;
    if (Kind[I] & 1)
      ++Tally.Stores[P];
    else
      ++Tally.Loads[P];
  }
  TallyValid = true;
  return Tally;
}

Status BatchKernel::validate(const RefColumns &Batch) {
  if (Batch.Kind.size() != Batch.Addr.size() ||
      Batch.PhaseTag.size() != Batch.Addr.size())
    return Status::failf(StatusCode::InvalidArgument,
                         "ragged columnar batch: %zu addresses, %zu kinds, "
                         "%zu phase tags",
                         Batch.Addr.size(), Batch.Kind.size(),
                         Batch.PhaseTag.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    if (Batch.Kind[I] > static_cast<uint8_t>(AccessKind::Store))
      return Status::failf(StatusCode::InvalidArgument,
                           "batch row %zu holds invalid access kind %u",
                           I, Batch.Kind[I]);
    if (Batch.PhaseTag[I] > static_cast<uint8_t>(Phase::Collector))
      return Status::failf(StatusCode::InvalidArgument,
                           "batch row %zu holds invalid phase tag %u",
                           I, Batch.PhaseTag[I]);
  }
  return Status();
}

/// The batch inner loop over a single-phase batch, specialized on
/// per-block bookkeeping. It is Cache::simulate with the policy flags
/// hoisted (the branch predictor treats loop-invariant booleans as free),
/// the clock and miss events in locals written back once, and plain loads
/// and stores counted in bulk from the batch tally. The direct-mapped
/// caches of a bank take the all-sizes column engine instead
/// (memsys/CacheColumn.h). The bit-identity tests pin this loop to the
/// scalar path at every flush boundary; any change here must be mirrored
/// there (and vice versa).
template <bool PerBlock>
void BatchKernel::runLoop(Cache &C, const RefColumns &Batch,
                          const BatchIndex::RefTally &Tally,
                          unsigned BatchPhase) {
  using Line = Cache::Line;
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = std::bit_width(SetMask); // log2(numSets)
  const uint32_t BlockShift = C.BlockShift;
  const uint32_t Ways = C.Config.Ways;
  const uint64_t FullMask = C.FullMask;
  const uint32_t OffsetMask = C.Config.BlockBytes - 1;
  const bool WriteThrough = C.Config.WriteHit == WriteHitPolicy::WriteThrough;
  const bool TrackDirty = C.Config.WriteHit == WriteHitPolicy::WriteBack;
  // The batch has one phase, so the fetch-on-write decision is made once.
  const bool FoW = C.Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
                   (C.Config.CollectorFetchOnWrite && BatchPhase != 0);

  Line *Lines = C.Lines.data();
  const Address *Addr = Batch.Addr.data();
  const uint8_t *Kind = Batch.Kind.data();
  uint64_t *BlockRefs = PerBlock ? C.BlockRefs.data() : nullptr;
  uint64_t *BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;

  uint64_t Clock = C.LruClock;
  uint64_t Fetch = 0, NoFetch = 0, Wb = 0;
  for (size_t I = 0, N = Batch.size(); I != N; ++I) {
    const uint32_t BI = Addr[I] >> BlockShift;
    const uint32_t SetIdx = BI & SetMask;
    const uint32_t Tag = BI >> SetShift;
    const uint64_t WB = 1ull << ((Addr[I] & OffsetMask) >> 2);
    const bool IsStore = Kind[I] & 1;

    Line *Set = Lines + static_cast<size_t>(SetIdx) * Ways;
    Line *Found = nullptr;
    Line *Victim = Set;
    for (uint32_t W = 0; W != Ways; ++W) {
      Line &Way = Set[W];
      if (Way.ValidMask != 0 && Way.Tag == Tag) {
        Found = &Way;
        break;
      }
      if (Way.ValidMask == 0) {
        Victim = &Way; // Prefer an empty way (last one scanned wins).
      } else if (Victim->ValidMask != 0 && Way.LruStamp < Victim->LruStamp) {
        Victim = &Way;
      }
    }
    Line *L = Found ? Found : Victim;

    uint64_t Missed = 0, Fetched = 0;
    if (Found) {
      if (IsStore) {
        L->ValidMask |= WB;
        L->Dirty |= TrackDirty;
      } else if (!(L->ValidMask & WB)) {
        // Sub-block read miss: resident block, never-fetched word.
        L->ValidMask = FullMask;
        Missed = Fetched = 1;
      }
    } else {
      // Block miss: evict the victim (writing back if dirty), install.
      if (L->ValidMask != 0 && L->Dirty)
        ++Wb;
      L->Tag = Tag;
      Missed = 1;
      if (IsStore && !FoW) {
        L->ValidMask = WB;
        L->Dirty = TrackDirty;
      } else {
        L->ValidMask = FullMask;
        L->Dirty = IsStore && TrackDirty;
        Fetched = 1;
      }
    }
    L->LruStamp = ++Clock;
    Fetch += Fetched;
    NoFetch += Missed - Fetched;
    if constexpr (PerBlock) {
      ++BlockRefs[SetIdx];
      BlockMisses[SetIdx] += Missed;
      BlockFetch[SetIdx] += Fetched;
    }
  }

  C.LruClock = Clock;
  CacheCounters &Cnt = C.Counts[BatchPhase];
  Cnt.Loads += Tally.Loads[BatchPhase];
  Cnt.Stores += Tally.Stores[BatchPhase];
  if (WriteThrough)
    Cnt.WriteThroughs += Tally.Stores[BatchPhase];
  Cnt.FetchMisses += Fetch;
  Cnt.NoFetchMisses += NoFetch;
  Cnt.Writebacks += Wb;
}

void BatchKernel::run(Cache &C, const RefColumns &Batch, BatchIndex &Index) {
  assert(Index.batch() == &Batch && "index was reset to a different batch");
  if (Batch.empty())
    return;
  const BatchIndex::RefTally &Tally = Index.tally();
  const bool AllCollector = Tally.Loads[0] + Tally.Stores[0] == 0;
  const bool AllMutator = Tally.Loads[1] + Tally.Stores[1] == 0;
  if (C.crossCheckEnabled() || (!AllCollector && !AllMutator)) {
    // The reference path, one Cache::access per reference. A shadow
    // oracle must observe every reference in lockstep (access drives it
    // and throws Divergence with the exact offending reference). A batch
    // holding both phases cannot occur in a CacheBank, which flushes at
    // every GC boundary, where the phase flips; it is simulated exactly
    // rather than fast.
    for (size_t I = 0; I != Batch.size(); ++I)
      (void)C.access(Batch.get(I));
    return;
  }
  const unsigned BatchPhase = AllCollector ? 1 : 0;
  if (C.config().TrackPerBlockStats)
    runLoop<true>(C, Batch, Tally, BatchPhase);
  else
    runLoop<false>(C, Batch, Tally, BatchPhase);
}
