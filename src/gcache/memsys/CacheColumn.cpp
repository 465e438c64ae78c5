//===- CacheColumn.cpp - All cache sizes of one block size in one pass ----===//

#include "gcache/memsys/CacheColumn.h"

#include "gcache/memsys/BatchKernel.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace gcache;

/// One pass over a column: its level geometry and policy, hoisted into
/// locals, plus the batch's difference arrays of miss events (a count
/// over levels [Lo, Hi] adds at Lo and subtracts at Hi + 1).
template <bool PerBlock> struct CacheColumn::Pass {
  using Line = Cache::Line;
  /// Distinct power-of-two sizes of at least 4 bytes fit in 30 levels.
  static constexpr unsigned MaxLevels = 32;

  struct Level {
    Line *Lines;
    uint32_t Mask;  ///< numSets - 1: a block's line is Lines[Block & Mask].
    uint32_t Shift; ///< log2(numSets): a block's tag is Block >> Shift.
    uint64_t Off;   ///< This level's LRU clock minus level 0's.
    uint64_t *Refs, *Misses, *Fetches; ///< Per-block statistics.
  };

  CacheColumn &Col;
  Level Lv[MaxLevels];
  const unsigned NL;
  uint64_t Full;
  bool TrackDirty;
  bool FoW = false;
  uint64_t DFetch[MaxLevels + 1] = {};
  uint64_t DNoFetch[MaxLevels + 1] = {};
  uint64_t DWb[MaxLevels + 1] = {};

  // The reference being simulated.
  uint32_t BI = 0;      ///< Its block index.
  uint64_t Bit = 0;     ///< Its word's valid bit.
  bool IsStore = false;

  explicit Pass(CacheColumn &Col)
      : Col(Col), NL(static_cast<unsigned>(Col.Levels.size())) {
    assert(NL <= MaxLevels);
    const Cache &C0 = *Col.Levels[0];
    Full = C0.FullMask;
    TrackDirty = C0.Config.WriteHit == WriteHitPolicy::WriteBack;
    for (unsigned K = 0; K != NL; ++K) {
      Cache &C = *Col.Levels[K];
      Lv[K] = {C.Lines.data(), C.SetMask,
               static_cast<uint32_t>(std::bit_width(C.SetMask)),
               C.LruClock - C0.LruClock, C.BlockRefs.data(),
               C.BlockMisses.data(), C.BlockFetchMisses.data()};
    }
  }

  Line *line(unsigned K, uint32_t Block) const {
    return Lv[K].Lines + (Block & Lv[K].Mask);
  }
  uint64_t stampAt(uint64_t Stamp, unsigned From, unsigned To) const {
    return Stamp - Lv[From].Off + Lv[To].Off;
  }

  /// Counts miss events of the reference's block at every level in
  /// [Lo, Hi].
  void note(unsigned Lo, unsigned Hi, uint64_t Fetch, uint64_t NoFetch) {
    DFetch[Lo] += Fetch;
    DFetch[Hi + 1] -= Fetch;
    DNoFetch[Lo] += NoFetch;
    DNoFetch[Hi + 1] -= NoFetch;
    if constexpr (PerBlock)
      for (unsigned K = Lo; K <= Hi; ++K) {
        Lv[K].Misses[BI & Lv[K].Mask] += Fetch + NoFetch;
        Lv[K].Fetches[BI & Lv[K].Mask] += Fetch;
      }
  }

  /// Applies the reference to the state of a level that holds its block;
  /// returns 1 on a sub-block read miss. Branch-free: whether a reference
  /// is a load or a store is as good as random.
  uint64_t hit(uint64_t &V, bool &D) const {
    V |= IsStore ? Bit : 0;
    const uint64_t Miss = !(V & Bit);
    V = Miss ? Full : V;
    D |= IsStore && TrackDirty;
    return Miss;
  }

  /// True when the reference can change no level above \p L's group: its
  /// word is valid at all of them, and a store finds them all dirty.
  bool settled(const Line *L) const {
    return (Bit & ~L->Cover) == 0 &&
           (!(IsStore && TrackDirty) || L->HigherDirty);
  }

  /// Applies the reference to the groups above \p Low's until one is
  /// settled, then refreshes the covers of the groups below it.
  void climb(Line *Low) {
    Line *Chain[MaxLevels];
    unsigned N = 0;
    Line *Cur = Low;
    do {
      Chain[N++] = Cur;
      const unsigned K = Cur->Top + 1u;
      assert(K < NL && "the top group's cover is total");
      Cur = line(K, BI);
      uint64_t V = Cur->ValidMask;
      bool D = Cur->Dirty;
      if (hit(V, D))
        note(K, Cur->Top, 1, 0);
      Cur->ValidMask = V;
      Cur->Dirty = D;
    } while (!settled(Cur));
    for (const Line *Above = Cur; N-- != 0; Above = Chain[N]) {
      Chain[N]->Cover = Above->ValidMask & Above->Cover;
      Chain[N]->HigherDirty = Above->Dirty && Above->HigherDirty;
    }
  }

  /// Evicts the block of \p L, the lowest line of its group, from level
  /// \p K. The rest of the group, if any, takes over its state one level
  /// up; otherwise the block's next group inherits its LRU stamp.
  void vacate(const Line &L, unsigned K) {
    if (L.Dirty) {
      ++DWb[K];
      --DWb[K + 1];
    }
    if (K + 1 == NL)
      return;
    const uint32_t X = (L.Tag << Lv[K].Shift) | (BI & Lv[K].Mask);
    Line *Up = line(K + 1, X);
    if (K < L.Top) {
      *Up = L;
      Up->Tag = X >> Lv[K + 1].Shift;
    }
    Up->LruStamp = stampAt(L.LruStamp, K, K + 1);
  }

  /// Walks up from level 0 to the first level holding the block,
  /// evicting whatever each level on the way holds; returns that level
  /// (NL if none). Each eviction moves the evicted group up a level, so
  /// every line the walk reads is current.
  unsigned evictBelow() {
    // The lines of the large levels are rarely in the host's caches, and
    // each step waits on the one below: fetch them all at once first.
    for (unsigned K = 1; K != NL; ++K)
      __builtin_prefetch(line(K, BI));
    unsigned K = 0;
    for (; K != NL; ++K) {
      const Line *L = line(K, BI);
      if (L->ValidMask == 0)
        continue;
      if (L->Tag == BI >> Lv[K].Shift)
        break;
      vacate(*L, K);
    }
    return K;
  }

  void run(const RefColumns &Batch, BatchIndex &Index, unsigned BatchPhase) {
    const Cache &C0 = *Col.Levels[0];
    FoW = C0.Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
          (C0.Config.CollectorFetchOnWrite && BatchPhase != 0);
    const uint32_t BlockShift = std::countr_zero(C0.Config.BlockBytes);
    const uint32_t OffsetMask = C0.Config.BlockBytes - 1;
    const Address *Addr = Batch.Addr.data();
    const uint8_t *Kind = Batch.Kind.data();
    Line *const Lines0 = Lv[0].Lines;
    const uint32_t Mask0 = Lv[0].Mask, Shift0 = Lv[0].Shift;
    const size_t N = Batch.size();
    uint64_t Clock = C0.LruClock;

    // Only the rare level-0 miss leaves the straight-line path. (The
    // level-0 lines fit the host's L2; prefetching them measured slower.)
    for (size_t I = 0; I != N; ++I) {
      BI = Addr[I] >> BlockShift;
      Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
      IsStore = Kind[I] & 1;
      Line *L0 = Lines0 + (BI & Mask0);
      uint64_t Fetch = 0, NoFetch = 0;
      if (L0->Tag == BI >> Shift0 && L0->ValidMask != 0) {
        // The common case: level 0 holds the block, so every level does.
        uint64_t V = L0->ValidMask;
        bool D = L0->Dirty;
        Fetch = hit(V, D);
        L0->ValidMask = V;
        L0->Dirty = D;
      } else {
        // Block miss at level 0: install a new group below the first
        // level that holds the block, whose state becomes its cover.
        const unsigned H = evictBelow();
        const Line *Above = H != NL ? line(H, BI) : nullptr;
        L0->Tag = BI >> Shift0;
        L0->Top = static_cast<uint8_t>(H - 1);
        L0->Cover = Above ? Above->ValidMask & Above->Cover : Full;
        L0->HigherDirty = !Above || (Above->Dirty && Above->HigherDirty);
        if (IsStore && !FoW) {
          L0->ValidMask = Bit;
          L0->Dirty = TrackDirty;
          NoFetch = 1;
        } else {
          L0->ValidMask = Full;
          L0->Dirty = IsStore && TrackDirty;
          Fetch = 1;
        }
      }
      L0->LruStamp = ++Clock;
      if (Fetch | NoFetch)
        note(0, L0->Top, Fetch, NoFetch);
      if constexpr (PerBlock)
        for (unsigned K = 0; K != NL; ++K)
          ++Lv[K].Refs[BI & Lv[K].Mask];
      if (!settled(L0))
        climb(L0);
    }

    const BatchIndex::RefTally &Tally = Index.tally();
    const bool WriteThrough =
        C0.Config.WriteHit == WriteHitPolicy::WriteThrough;
    uint64_t Fetch = 0, NoFetch = 0, Wb = 0;
    for (unsigned K = 0; K != NL; ++K) {
      Fetch += DFetch[K];
      NoFetch += DNoFetch[K];
      Wb += DWb[K];
      Cache &C = *Col.Levels[K];
      CacheCounters &Cnt = C.Counts[BatchPhase];
      Cnt.Loads += Tally.Loads[BatchPhase];
      Cnt.Stores += Tally.Stores[BatchPhase];
      if (WriteThrough)
        Cnt.WriteThroughs += Tally.Stores[BatchPhase];
      Cnt.FetchMisses += Fetch;
      Cnt.NoFetchMisses += NoFetch;
      Cnt.Writebacks += Wb;
      C.LruClock = Clock + Lv[K].Off;
    }
  }

  /// Copies each group's state into its stale lines, lowest level first,
  /// and each level's stamps into the level above (every level holding a
  /// block was last touched by the same reference).
  void materialize() {
    for (unsigned K = 0; K != NL; ++K)
      for (uint32_t S = 0; S <= Lv[K].Mask; ++S) {
        const Line L = Lv[K].Lines[S];
        if (L.ValidMask == 0)
          continue;
        const uint32_t X = (L.Tag << Lv[K].Shift) | S;
        for (unsigned J = K + 1; J <= L.Top; ++J) {
          Line *T = line(J, X);
          *T = L;
          T->Tag = X >> Lv[J].Shift;
          T->Top = static_cast<uint8_t>(J);
          T->LruStamp = stampAt(L.LruStamp, K, J);
        }
        if (K + 1 != NL)
          line(K + 1, X)->LruStamp = stampAt(L.LruStamp, K, K + 1);
      }
  }

  /// Rebuilds the groups from exact lines, top level first: a line joins
  /// the group of the level above when that level holds the same block in
  /// the same state.
  Status regroup() {
    for (unsigned K = NL; K-- != 0;)
      for (uint32_t S = 0; S <= Lv[K].Mask; ++S) {
        Line &L = Lv[K].Lines[S];
        if (L.ValidMask == 0)
          continue;
        if (K + 1 == NL) {
          L.Top = static_cast<uint8_t>(K);
          L.Cover = Full;
          L.HigherDirty = true;
          continue;
        }
        const uint32_t X = (L.Tag << Lv[K].Shift) | S;
        const Line &U = *line(K + 1, X);
        if (U.ValidMask == 0 || U.Tag != X >> Lv[K + 1].Shift ||
            stampAt(U.LruStamp, K + 1, K) != L.LruStamp)
          return Status::failf(
              StatusCode::Corrupt,
              "%s holds block 0x%x, which %s does not hold with the same "
              "LRU stamp: the direct-mapped caches of one block size must "
              "be inclusive",
              Col.Levels[K]->config().label().c_str(), X,
              Col.Levels[K + 1]->config().label().c_str());
        if (U.ValidMask == L.ValidMask && U.Dirty == L.Dirty) {
          L.Top = U.Top;
          L.Cover = U.Cover;
          L.HigherDirty = U.HigherDirty;
        } else {
          L.Top = static_cast<uint8_t>(K);
          L.Cover = U.ValidMask & U.Cover;
          L.HigherDirty = U.Dirty && U.HigherDirty;
        }
      }
    return Status();
  }
};

std::vector<CacheColumn>
CacheColumn::partition(const std::vector<Cache *> &Caches) {
  std::vector<CacheColumn> Out;
  for (Cache *C : Caches) {
    const CacheConfig &B = C->config();
    const bool Joins = B.Ways == 1 && !C->crossCheckEnabled();
    CacheColumn *Home = nullptr;
    for (CacheColumn &Col : Out) {
      const CacheConfig &A = Col.Levels[0]->config();
      if (Joins && Col.Engine && A.BlockBytes == B.BlockBytes &&
          A.WriteMiss == B.WriteMiss && A.WriteHit == B.WriteHit &&
          A.CollectorFetchOnWrite == B.CollectorFetchOnWrite &&
          A.TrackPerBlockStats == B.TrackPerBlockStats &&
          std::none_of(Col.Levels.begin(), Col.Levels.end(),
                       [&](const Cache *L) {
                         return L->config().SizeBytes == B.SizeBytes;
                       })) {
        Home = &Col;
        break;
      }
    }
    if (!Home) {
      Home = &Out.emplace_back();
      Home->Engine = Joins;
    }
    Home->Levels.push_back(C);
  }
  for (CacheColumn &Col : Out)
    std::sort(Col.Levels.begin(), Col.Levels.end(),
              [](const Cache *A, const Cache *B) {
                return A->config().SizeBytes < B->config().SizeBytes;
              });
  return Out;
}

void CacheColumn::run(const RefColumns &Batch, BatchIndex &Index) {
  assert(Index.batch() == &Batch && "index was reset to a different batch");
  if (!Engine) {
    BatchKernel::run(*Levels[0], Batch, Index);
    return;
  }
  if (Batch.empty())
    return;
  const BatchIndex::RefTally &Tally = Index.tally();
  const bool AllCollector = Tally.Loads[0] + Tally.Stores[0] == 0;
  const bool AllMutator = Tally.Loads[1] + Tally.Stores[1] == 0;
  if (!AllCollector && !AllMutator) {
    // Both phases: the reference model, exact rather than fast. A
    // CacheBank never builds such a batch (it flushes at every GC
    // boundary, where the phase flips).
    release();
    for (Cache *C : Levels)
      BatchKernel::run(*C, Batch, Index);
    return;
  }
  if (!Grouped)
    if (Status S = adopt(); !S.ok())
      throw StatusError(std::move(S));
  Exact = false;
  const unsigned BatchPhase = AllCollector ? 1 : 0;
  if (Levels[0]->config().TrackPerBlockStats)
    Pass<true>(*this).run(Batch, Index, BatchPhase);
  else
    Pass<false>(*this).run(Batch, Index, BatchPhase);
}

void CacheColumn::materialize() {
  if (!Exact && Engine)
    Pass<false>(*this).materialize();
  Exact = true;
}

Status CacheColumn::adopt() {
  Exact = true;
  Grouped = false;
  if (!Engine)
    return Status();
  Status S = Pass<false>(*this).regroup();
  Grouped = S.ok();
  return S;
}
