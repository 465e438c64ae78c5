//===- CacheBank.cpp - Simulate many cache configs in one pass ------------===//

#include "gcache/memsys/CacheBank.h"

#include "gcache/support/Snapshot.h"

#include <cassert>

using namespace gcache;

CacheBank::~CacheBank() {
  // ShardPool's destructor drains its queues before joining, so any
  // still-buffered references are published and simulated first. Worker
  // failures are swallowed here (destructors must not throw); callers who
  // care flush() explicitly before destruction. Serial batched mode can
  // throw from a cross-checked batch, so it gets the same swallowing.
  if (Pool || SerialBatched) {
    try {
      publish();
    } catch (...) {
    }
  }
}

size_t CacheBank::addConfig(const CacheConfig &Config) {
  assert(!Pool && "add all configs before setThreads()");
  Caches.push_back(std::make_unique<Cache>(Config));
  if (CrossCheckEvery)
    Caches.back()->enableCrossCheck(CrossCheckEvery);
  rebuildColumns();
  return Caches.size() - 1;
}

void CacheBank::enableCrossCheck(uint64_t CompareEvery) {
  assert(!Pool && "enable cross-checking before setThreads()");
  CrossCheckEvery = CompareEvery ? CompareEvery : 1;
  for (auto &C : Caches)
    C->enableCrossCheck(CrossCheckEvery);
  rebuildColumns();
}

void CacheBank::rebuildColumns() {
  // The new columns start from exact lines and rebuild their groups on
  // their first batch.
  releaseColumns();
  std::vector<Cache *> Raw;
  for (auto &C : Caches)
    Raw.push_back(C.get());
  Columns = CacheColumn::partition(Raw);
}

/// Per-reference dispatch keeps every line exact but no groups current:
/// switching into it materializes, switching out of it rebuilds the
/// groups at the first batch.
void CacheBank::releaseColumns() {
  for (CacheColumn &Col : Columns)
    Col.release();
}

void CacheBank::materialize() {
  flush();
  for (CacheColumn &Col : Columns)
    Col.materialize();
}

Status CacheBank::crossCheckNow() const {
  for (const auto &C : Caches)
    if (Status S = C->crossCheckNow(); !S.ok())
      return S;
  return Status();
}

Status CacheBank::auditAll() {
  materialize();
  for (const auto &C : Caches)
    if (Status S = C->auditState(); !S.ok())
      return S;
  return Status();
}

void CacheBank::addPaperGrid(const CacheConfig &Prototype) {
  for (uint32_t Size : paperCacheSizes())
    for (uint32_t Block : paperBlockSizes()) {
      CacheConfig C = Prototype;
      C.SizeBytes = Size;
      C.BlockBytes = Block;
      addConfig(C);
    }
}

void CacheBank::addSizeSweep(const CacheConfig &Prototype,
                             uint32_t BlockBytes) {
  for (uint32_t Size : paperCacheSizes()) {
    CacheConfig C = Prototype;
    C.SizeBytes = Size;
    C.BlockBytes = BlockBytes;
    addConfig(C);
  }
}

void CacheBank::setThreads(unsigned Threads, size_t BatchRefsWanted) {
  flush();
  const bool WasBatched = Pool || SerialBatched;
  Pool.reset();
  BatchRefs = BatchRefsWanted ? BatchRefsWanted : DefaultBatchRefs;
  if (Threads != 0 && !Caches.empty()) {
    std::vector<CacheColumn *> Raw;
    for (CacheColumn &Col : Columns)
      Raw.push_back(&Col);
    Pool = std::make_unique<ShardPool>(Raw, Threads);
    Pending.reserve(BatchRefs);
  }
  if (WasBatched != (Pool || SerialBatched))
    releaseColumns();
}

void CacheBank::setBatched(bool Enabled, size_t BatchRefsWanted) {
  flush();
  const bool WasBatched = Pool || SerialBatched;
  SerialBatched = Enabled;
  BatchRefs = BatchRefsWanted ? BatchRefsWanted : DefaultBatchRefs;
  if (Enabled && !Pool)
    Pending.reserve(BatchRefs);
  if (WasBatched != (Pool || SerialBatched))
    releaseColumns();
}

void CacheBank::publish() {
  if (Pending.empty())
    return;
  if (!Pool) {
    runSerialBatch();
    return;
  }
  auto Batch = std::make_shared<RefBatch>(std::move(Pending));
  Pending = RefBatch();
  Pending.reserve(BatchRefs);
  Pool->submit(std::move(Batch));
}

void CacheBank::runSerialBatch() {
  // The batch is simulated in place and cleared afterwards even if a
  // cache throws (cross-check divergence): the failing batch must not be
  // replayed by a later flush on top of already-updated sibling caches.
  struct Clearer {
    RefBatch &B;
    ~Clearer() { B.clear(); }
  } Clear{Pending};
  SerialScratch.reset(&Pending);
  for (CacheColumn &Col : Columns)
    Col.run(Pending, SerialScratch);
}

void CacheBank::flush() {
  if (Pool) {
    publish();
    Pool->drain();
  } else if (SerialBatched) {
    publish();
  }
  // Flush points (GC boundaries, end of run) are where the deep
  // comparison runs: per-access checks catch hit-class divergence, this
  // catches silent state or counter drift in either execution mode.
  if (CrossCheckEvery)
    if (Status S = crossCheckNow(); !S.ok())
      throw StatusError(std::move(S));
}

const Cache *CacheBank::find(uint32_t SizeBytes, uint32_t BlockBytes) const {
  for (const auto &C : Caches)
    if (C->config().SizeBytes == SizeBytes &&
        C->config().BlockBytes == BlockBytes)
      return C.get();
  return nullptr;
}

void CacheBank::resetAll() {
  flush();
  for (auto &C : Caches)
    C->reset();
  for (CacheColumn &Col : Columns)
    (void)Col.adopt(); // Empty lines are trivially inclusive.
}

void CacheBank::saveTo(SnapshotWriter &W) {
  materialize();
  W.beginSection("cache-bank");
  W.putU64(Caches.size());
  for (auto &C : Caches)
    C->saveState(W);
}

Status CacheBank::loadFrom(const SnapshotReader &R) {
  flush();
  SnapshotCursor C = R.section("cache-bank");
  uint64_t Count = C.getU64();
  if (C.ok() && Count != Caches.size())
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache-bank snapshot has %llu caches, this bank "
                         "has %zu",
                         static_cast<unsigned long long>(Count),
                         Caches.size()));
  for (auto &Cache : Caches) {
    if (!C.ok())
      break;
    Cache->loadState(C);
  }
  if (Status S = C.finish(); !S.ok())
    return S;
  // The loaded lines are exact; each column checks inclusion across its
  // caches while rebuilding its groups.
  for (CacheColumn &Col : Columns)
    if (Status S = Col.adopt(); !S.ok())
      return S;
  return Status();
}
