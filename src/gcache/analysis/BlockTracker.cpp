//===- BlockTracker.cpp - Per-memory-block behaviour analysis ---------------===//

#include "gcache/analysis/BlockTracker.h"

#include <bit>
#include <cassert>

using namespace gcache;

BlockTracker::BlockTracker(uint32_t BlockBytes, uint32_t CacheBytes,
                           Address RuntimeVectorAddr)
    : BlockBytes(BlockBytes), RuntimeVecAddr(RuntimeVectorAddr) {
  assert(BlockBytes >= 4 && (BlockBytes & (BlockBytes - 1)) == 0 &&
         "block size must be a power of two");
  assert(CacheBytes % BlockBytes == 0 && "cache not a multiple of blocks");
  BlockShift = std::bit_width(BlockBytes) - 1;
  NumSlots = CacheBytes / BlockBytes;
  SlotMask = NumSlots - 1;
  assert((NumSlots & SlotMask) == 0 && "cache block count must be 2^k");
}

void BlockTracker::onAlloc(Address Addr, uint32_t Bytes) {
  uint32_t EndOff = (Addr + Bytes) - Heap::DynamicBase;
  uint32_t NewFrontier = (EndOff + BlockBytes - 1) >> BlockShift;
  if (NewFrontier > FrontierBlocks) {
    if (LastAllocTime.empty())
      LastAllocTime.assign(NumSlots, 0);
    // Each newly claimed dynamic block is an allocation miss in its cache
    // slot; the gap since the slot's previous allocation miss is one
    // allocation cycle (§7).
    for (uint32_t B = FrontierBlocks; B != NewFrontier; ++B) {
      uint32_t Slot = cacheSlotOf(B);
      if (LastAllocTime[Slot])
        CycleLens.add(Clock - LastAllocTime[Slot]);
      LastAllocTime[Slot] = Clock ? Clock : 1;
    }
    FrontierBlocks = NewFrontier;
    Dynamic.resize(FrontierBlocks);
  }
}

void BlockTracker::touch(BlockRecord &Rec, uint32_t Slot) {
  if (Rec.RefCount == 0)
    Rec.FirstRef = Clock;
  Rec.LastRef = Clock;
  ++Rec.RefCount;
  uint32_t Cycle = currentCycleOf(Slot);
  if (Rec.LastCycleSeen != Cycle) {
    Rec.LastCycleSeen = Cycle;
    ++Rec.CyclesActive;
  }
}

void BlockTracker::onRef(const Ref &R) {
  ++Clock;
  if (R.Addr >= Heap::DynamicBase) {
    uint32_t BlockIdx = (R.Addr - Heap::DynamicBase) >> BlockShift;
    if (BlockIdx >= Dynamic.size()) {
      // A reference beyond the recorded frontier (e.g. collector-resized
      // areas); extend conservatively.
      Dynamic.resize(BlockIdx + 1);
      if (BlockIdx + 1 > FrontierBlocks)
        FrontierBlocks = BlockIdx + 1;
    }
    touch(Dynamic[BlockIdx], cacheSlotOf(BlockIdx));
    return;
  }
  if (R.Addr >= Heap::StackBase &&
      R.Addr < Heap::StackBase + Heap::StackCapacityWords * 4)
    ++StackRefs;
  uint32_t BlockIdx = R.Addr >> BlockShift;
  touch(Static[BlockIdx], cacheSlotOf(BlockIdx));
}

BlockSummary BlockTracker::computeSummary() {
  BlockSummary S;
  S.TotalRefs = Clock;
  S.StackRefs = StackRefs;
  uint64_t BusyThreshold = Clock / 1000;
  if (BusyThreshold == 0)
    BusyThreshold = 1;

  if (!Finalized) {
    Finalized = true;
    for (const BlockRecord &Rec : Dynamic) {
      if (Rec.RefCount == 0)
        continue;
      Lifetimes.add(Rec.LastRef - Rec.FirstRef);
      DynRefCounts.add(Rec.RefCount);
    }
  }

  for (size_t I = 0; I != Dynamic.size(); ++I) {
    const BlockRecord &Rec = Dynamic[I];
    if (Rec.RefCount == 0)
      continue;
    ++S.DynamicBlocks;
    uint32_t BirthCycle = static_cast<uint32_t>(I) / NumSlots + 1;
    bool OneCycle = Rec.CyclesActive == 1 && Rec.LastCycleSeen == BirthCycle;
    if (OneCycle)
      ++S.OneCycleBlocks;
    else {
      ++S.MultiCycleBlocks;
      if (Rec.CyclesActive <= 4)
        ++S.MultiCycleActiveLe4;
    }
    if (Rec.RefCount >= BusyThreshold) {
      ++S.BusyDynamicBlocks;
      S.BusyRefs += Rec.RefCount;
    }
  }

  uint32_t RtBlockFirst = RuntimeVecAddr >> BlockShift;
  uint32_t RtBlockLast = (RuntimeVecAddr + 16 * 4) >> BlockShift;
  for (const auto &[BlockIdx, Rec] : Static) {
    ++S.StaticBlocks;
    if (Rec.RefCount >= BusyThreshold) {
      ++S.BusyStaticBlocks;
      S.BusyRefs += Rec.RefCount;
    }
    if (RuntimeVecAddr && BlockIdx >= RtBlockFirst && BlockIdx <= RtBlockLast)
      S.RuntimeVectorRefs += Rec.RefCount;
  }
  return S;
}

static void saveRecord(SnapshotWriter &W, const BlockRecord &Rec) {
  W.putU64(Rec.FirstRef);
  W.putU64(Rec.LastRef);
  W.putU64(Rec.RefCount);
  W.putU32(Rec.LastCycleSeen);
  W.putU32(Rec.CyclesActive);
}

static BlockRecord loadRecord(SnapshotCursor &C) {
  BlockRecord Rec;
  Rec.FirstRef = C.getU64();
  Rec.LastRef = C.getU64();
  Rec.RefCount = C.getU64();
  Rec.LastCycleSeen = C.getU32();
  Rec.CyclesActive = C.getU32();
  return Rec;
}

void BlockTracker::saveTo(SnapshotWriter &W) const {
  W.beginSection(snapshotTag());
  W.putU32(BlockBytes);
  W.putU32(NumSlots);
  W.putU32(RuntimeVecAddr);
  W.putU64(Clock);
  W.putU32(FrontierBlocks);
  W.putU64(StackRefs);
  W.putU8(Finalized ? 1 : 0);
  W.putU64(Dynamic.size());
  for (const BlockRecord &Rec : Dynamic)
    saveRecord(W, Rec);
  W.putU64(Static.size());
  for (const auto &[BlockIdx, Rec] : Static) {
    W.putU32(BlockIdx);
    saveRecord(W, Rec);
  }
  Lifetimes.save(W);
  DynRefCounts.save(W);
  CycleLens.save(W);
  W.putVecU64(LastAllocTime);
}

Status BlockTracker::loadFrom(const SnapshotReader &R) {
  SnapshotCursor C = R.section(snapshotTag());
  uint32_t SavedBlockBytes = C.getU32();
  uint32_t SavedNumSlots = C.getU32();
  uint32_t SavedRtAddr = C.getU32();
  if (C.ok() && (SavedBlockBytes != BlockBytes || SavedNumSlots != NumSlots ||
                 SavedRtAddr != RuntimeVecAddr))
    C.fail(Status::failf(StatusCode::Corrupt,
                         "block-tracker snapshot (block %u, slots %u) does "
                         "not match this tracker (block %u, slots %u)",
                         SavedBlockBytes, SavedNumSlots, BlockBytes,
                         NumSlots));
  uint64_t SavedClock = C.getU64();
  uint32_t SavedFrontier = C.getU32();
  uint64_t SavedStackRefs = C.getU64();
  bool SavedFinalized = C.getU8() != 0;
  uint64_t NumDynamic = C.getU64();
  std::vector<BlockRecord> NewDynamic;
  // Each dynamic record is 32 payload bytes; a count past remaining()/32
  // can only be damage, so refuse before attempting a huge reserve.
  if (C.ok() && NumDynamic > C.remaining() / 32)
    C.fail(Status::failf(StatusCode::Truncated,
                         "block-tracker snapshot claims %llu dynamic records",
                         static_cast<unsigned long long>(NumDynamic)));
  if (C.ok()) {
    NewDynamic.reserve(static_cast<size_t>(NumDynamic));
    for (uint64_t I = 0; C.ok() && I != NumDynamic; ++I)
      NewDynamic.push_back(loadRecord(C));
  }
  uint64_t NumStatic = C.getU64();
  std::unordered_map<uint32_t, BlockRecord> NewStatic;
  if (C.ok() && NumStatic > C.remaining() / 36)
    C.fail(Status::failf(StatusCode::Truncated,
                         "block-tracker snapshot claims %llu static records",
                         static_cast<unsigned long long>(NumStatic)));
  for (uint64_t I = 0; C.ok() && I != NumStatic; ++I) {
    uint32_t BlockIdx = C.getU32();
    NewStatic.emplace(BlockIdx, loadRecord(C));
  }
  Log2Histogram NewLifetimes, NewDynRefCounts, NewCycleLens;
  NewLifetimes.load(C);
  NewDynRefCounts.load(C);
  NewCycleLens.load(C);
  std::vector<uint64_t> NewLastAlloc = C.getVecU64();
  if (C.ok() && NewLastAlloc.size() != LastAllocTime.size() &&
      !(LastAllocTime.empty() && NewLastAlloc.size() == NumSlots))
    C.fail(Status::failf(StatusCode::Corrupt,
                         "block-tracker snapshot has %zu alloc-time slots",
                         NewLastAlloc.size()));
  if (Status S = C.finish(); !S.ok())
    return S;

  Clock = SavedClock;
  FrontierBlocks = SavedFrontier;
  StackRefs = SavedStackRefs;
  Finalized = SavedFinalized;
  Dynamic = std::move(NewDynamic);
  Static = std::move(NewStatic);
  Lifetimes = std::move(NewLifetimes);
  DynRefCounts = std::move(NewDynRefCounts);
  CycleLens = std::move(NewCycleLens);
  LastAllocTime = std::move(NewLastAlloc);
  return Status();
}
