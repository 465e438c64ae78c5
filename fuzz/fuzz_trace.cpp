//===- fuzz_trace.cpp - Fuzz target: binary trace files -----------------------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
// Property under test: TraceStream must either reject arbitrary bytes
// with a structured Status or decode them correctly — never crash, hang,
// or read out of bounds. Concretely:
//
//  - strict open and salvage open never crash on any input;
//  - an input the strict open accepts is accepted undamaged by salvage,
//    with the identical record stream;
//  - every salvaged stream replays cleanly into a cross-checked cache
//    (the oracle and the invariant audit both stay green), and its
//    salvage accounting (droppedBytes/droppedRecords) is consistent;
//  - the batched decode path (TraceStream::nextRefBatch) yields columns
//    that always pass BatchKernel::validate, and replaying them through
//    the batch kernel, and through the column engine on two sizes at
//    once, ends with counters identical to the scalar replay — for any
//    input and any batch capacity.
//
//===----------------------------------------------------------------------===//

#include "FuzzCheck.h"

#include "gcache/memsys/BatchKernel.h"
#include "gcache/memsys/Cache.h"
#include "gcache/memsys/CacheColumn.h"
#include "gcache/trace/TraceFile.h"

#include <cstdint>
#include <vector>

using namespace gcache;

namespace {

const CacheConfig FuzzCacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 32};
const CacheConfig FuzzLargeConfig{.SizeBytes = 4 << 10, .BlockBytes = 32};

bool sameCounters(const Cache &A, const Cache &B, Phase P) {
  const CacheCounters &X = A.counters(P);
  const CacheCounters &Y = B.counters(P);
  return X.Loads == Y.Loads && X.Stores == Y.Stores &&
         X.FetchMisses == Y.FetchMisses &&
         X.NoFetchMisses == Y.NoFetchMisses && X.Writebacks == Y.Writebacks &&
         X.WriteThroughs == Y.WriteThroughs;
}

/// Replays every record of \p S into a tiny cross-checked cache and
/// checks the model invariants afterwards. Returns the cache so the
/// batched replay can be differenced against it.
Cache replayChecked(TraceStream &S) {
  Cache C(FuzzCacheConfig);
  C.enableCrossCheck(1);
  TraceRecord Rec;
  uint64_t Seen = 0;
  while (S.next(Rec)) {
    Rec.dispatch(C);
    ++Seen;
  }
  FUZZ_CHECK(Seen == S.recordCount(),
             "next() must deliver exactly recordCount() records");
  FUZZ_CHECK(C.crossCheckNow().ok(),
             "oracle must agree with the cache after any valid trace");
  FUZZ_CHECK(C.auditState().ok(),
             "cache invariants must hold after any valid trace");
  return C;
}

/// Replays \p S through the columnar paths — nextRefBatch runs fed to
/// BatchKernel::run and to a column of two sizes, markers dispatched
/// scalar — and checks the result against scalar replays.
void replayBatchedChecked(TraceStream &S, size_t BatchCap,
                          const Cache &Scalar) {
  Cache C(FuzzCacheConfig);
  Cache Small(FuzzCacheConfig), Large(FuzzLargeConfig);
  Cache LargeScalar(FuzzLargeConfig);
  std::vector<CacheColumn> Column = CacheColumn::partition({&Small, &Large});
  RefColumns B;
  BatchIndex Idx;
  TraceRecord Rec;
  for (;;) {
    B.clear();
    size_t N = S.nextRefBatch(B, BatchCap);
    if (N != 0) {
      FUZZ_CHECK(BatchKernel::validate(B).ok(),
                 "trace-decoded columns must always validate");
      Idx.reset(&B);
      BatchKernel::run(C, B, Idx);
      Column[0].run(B, Idx);
      for (size_t I = 0; I != N; ++I)
        (void)LargeScalar.access(B.get(I));
    }
    if (N == BatchCap)
      continue;
    if (!S.next(Rec))
      break;
    FUZZ_CHECK(Rec.Op != TraceRecord::Kind::Ref,
               "nextRefBatch must consume every run of refs completely");
    Rec.dispatch(C);
  }
  FUZZ_CHECK(S.recordIndex() == S.recordCount(),
             "batched decode must reach the exact end of the stream");
  FUZZ_CHECK(sameCounters(Scalar, C, Phase::Mutator) &&
                 sameCounters(Scalar, C, Phase::Collector),
             "batch kernel must match the scalar replay on any valid trace");
  FUZZ_CHECK(C.auditState().ok(),
             "cache invariants must hold after any batched replay");
  Column[0].materialize();
  FUZZ_CHECK(sameCounters(Scalar, Small, Phase::Mutator) &&
                 sameCounters(Scalar, Small, Phase::Collector) &&
                 sameCounters(LargeScalar, Large, Phase::Mutator) &&
                 sameCounters(LargeScalar, Large, Phase::Collector),
             "column engine must match the scalar replay on any valid trace");
  FUZZ_CHECK(Small.auditState().ok() && Large.auditState().ok(),
             "cache invariants must hold after any column replay");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);

  TraceStream Strict;
  Status StrictStatus = Strict.openBuffer(Bytes, /*Salvage=*/false);

  TraceStream Salvaged;
  Status SalvageStatus = Salvaged.openBuffer(Bytes, /*Salvage=*/true);

  if (StrictStatus.ok()) {
    // A file strict mode accepts is undamaged; salvage must agree in full.
    FUZZ_CHECK(SalvageStatus.ok(), "salvage must accept what strict accepts");
    FUZZ_CHECK(Salvaged.damage().ok(), "valid input must report no damage");
    FUZZ_CHECK(Salvaged.recordCount() == Strict.recordCount(),
               "salvage of a valid file must keep every record");
    FUZZ_CHECK(Strict.droppedBytes() == 0 && Strict.droppedRecords() == 0,
               "no salvage accounting on a valid file");
    (void)replayChecked(Strict);
  }

  if (SalvageStatus.ok()) {
    if (!Salvaged.damage().ok())
      // A missing-footer cut can drop zero bytes, but a cut can never be
      // accounted as larger than the input itself.
      FUZZ_CHECK(Salvaged.droppedBytes() <= Bytes.size(),
                 "cannot drop more bytes than the input holds");
    Cache Scalar = replayChecked(Salvaged);

    // Batch-kernel differential: the same bytes through the columnar
    // decode + batch kernel, with an input-derived batch capacity so the
    // fuzzer explores the segmentation space too.
    TraceStream Batched;
    FUZZ_CHECK(Batched.openBuffer(Bytes, /*Salvage=*/true).ok(),
               "salvage open must be deterministic");
    size_t BatchCap = 1 + (Size % 301);
    replayBatchedChecked(Batched, BatchCap, Scalar);
  }
  return 0;
}
