//===- Stats.cpp - Running statistics and distributions -------------------===//

#include "gcache/support/Stats.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Table.h"

#include <bit>
#include <cassert>

using namespace gcache;

void RunningStats::add(double X) {
  if (N == 0) {
    Lo = Hi = X;
  } else {
    if (X < Lo)
      Lo = X;
    if (X > Hi)
      Hi = X;
  }
  ++N;
  Sum += X;
}

void RunningStats::save(SnapshotWriter &W) const {
  W.putU64(N);
  W.putDouble(Sum);
  W.putDouble(Lo);
  W.putDouble(Hi);
}

void RunningStats::load(SnapshotCursor &C) {
  N = C.getU64();
  Sum = C.getDouble();
  Lo = C.getDouble();
  Hi = C.getDouble();
}

static unsigned bucketOf(uint64_t X) {
  if (X < 2)
    return 0;
  return std::bit_width(X) - 1;
}

void Log2Histogram::add(uint64_t X) {
  ++Buckets[bucketOf(X)];
  ++Total;
}

uint64_t Log2Histogram::countAtOrBelowBucketOf(uint64_t X) const {
  unsigned B = bucketOf(X);
  uint64_t Count = 0;
  for (unsigned I = 0; I <= B; ++I)
    Count += Buckets[I];
  return Count;
}

double Log2Histogram::cumulativeFractionAt(uint64_t X) const {
  if (Total == 0)
    return 0.0;
  return static_cast<double>(countAtOrBelowBucketOf(X)) /
         static_cast<double>(Total);
}

void Log2Histogram::save(SnapshotWriter &W) const {
  W.putVecU64(Buckets);
  W.putU64(Total);
}

void Log2Histogram::load(SnapshotCursor &C) {
  std::vector<uint64_t> B = C.getVecU64();
  uint64_t T = C.getU64();
  if (!C.ok())
    return;
  if (B.size() != Buckets.size()) {
    C.fail(Status::failf(StatusCode::Corrupt,
                         "log2 histogram snapshot has %zu buckets, not %zu",
                         B.size(), Buckets.size()));
    return;
  }
  Buckets = std::move(B);
  Total = T;
}
