//===- micro_throughput.cpp - google-benchmark microbenchmarks ----------------===//
//
// Throughput of the simulation substrates themselves (not a paper
// artefact): cache-simulator accesses/s for sequential and random
// streams, serial vs. parallel paper-grid bank refs/s, VM
// instructions/s, and Cheney copy bandwidth. Useful for sizing --scale
// against a time budget and --threads against the machine.
//
//===----------------------------------------------------------------------===//

#include "gcache/gc/CheneyCollector.h"
#include "gcache/memsys/Cache.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Random.h"
#include "gcache/vm/SchemeSystem.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace gcache;

static void BM_CacheSequentialStores(benchmark::State &State) {
  CacheConfig Config;
  Config.SizeBytes = static_cast<uint32_t>(State.range(0));
  Config.BlockBytes = 64;
  Cache Sim(Config);
  Address A = Heap::DynamicBase;
  for (auto _ : State) {
    Sim.onRef({A, AccessKind::Store, Phase::Mutator});
    A += 4;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheSequentialStores)->Arg(64 << 10)->Arg(4 << 20);

static void BM_CacheRandomLoads(benchmark::State &State) {
  CacheConfig Config;
  Config.SizeBytes = static_cast<uint32_t>(State.range(0));
  Config.BlockBytes = 64;
  Cache Sim(Config);
  Rng R(42);
  for (auto _ : State) {
    Address A = Heap::DynamicBase +
                (static_cast<Address>(R.below(1u << 24)) & ~3u);
    Sim.onRef({A, AccessKind::Load, Phase::Mutator});
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheRandomLoads)->Arg(64 << 10)->Arg(4 << 20);

// The workload every experiment pays for: one reference stream feeding the
// full §4 paper grid. Args are {threads, batched}: {0,0} is the serial
// per-reference baseline, {0,1} serial batches through the column engine
// (memsys/CacheColumn.h), {N,1} N shard workers (threaded mode always
// batches). Counters are bit-identical in every mode, so refs/s is the
// only thing that changes; items_per_second is the measure the acceptance
// docs quote, and bench/bank_bench.cpp writes the same comparison to
// BENCH_bank.json.
static void BM_BankPaperGrid(benchmark::State &State) {
  CacheBank Bank;
  Bank.addPaperGrid(CacheConfig{});
  Bank.setThreads(static_cast<unsigned>(State.range(0)));
  if (State.range(0) == 0 && State.range(1) != 0)
    Bank.setBatched(true);
  // A young-heap-shaped stream: sequential allocation-style stores mixed
  // with random re-reads over a 16 MB window.
  std::vector<Ref> Stream;
  Stream.reserve(1 << 18);
  Rng R(7);
  Address Frontier = Heap::DynamicBase;
  for (size_t I = 0; I != Stream.capacity(); ++I) {
    if (I % 4 != 3) {
      Stream.push_back({Frontier, AccessKind::Store, Phase::Mutator});
      Frontier += 4;
    } else {
      Address A = Heap::DynamicBase +
                  (static_cast<Address>(R.below(1u << 24)) & ~3u);
      Stream.push_back({A, AccessKind::Load, Phase::Mutator});
    }
  }
  for (auto _ : State) {
    for (const Ref &Ref_ : Stream)
      Bank.onRef(Ref_);
    Bank.flush();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
}
BENCHMARK(BM_BankPaperGrid)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_VmFibonacci(benchmark::State &State) {
  SchemeSystemConfig C;
  SchemeSystem S(C);
  S.loadDefinitions(
      "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  uint64_t Instr = 0;
  for (auto _ : State) {
    uint64_t Before = S.vm().instructions();
    S.run("(fib 15)");
    Instr += S.vm().instructions() - Before;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instr));
  State.SetLabel("items = simulated instructions");
}
BENCHMARK(BM_VmFibonacci);

static void BM_CheneyCopyBandwidth(benchmark::State &State) {
  Heap H(nullptr);
  SimpleMutatorContext Mutator;
  CheneyCollector GC(H, Mutator, 8u << 20);
  // A live list of ~64k pairs (~768 KB) copied per collection.
  Value Head = Value::nil();
  Mutator.HostRoots.push_back(&Head);
  for (int I = 0; I != 64 * 1024; ++I)
    Head = makePair(H, GC, Value::fixnum(I), Head);
  uint64_t Words = 0;
  for (auto _ : State) {
    uint64_t Before = GC.stats().WordsCopied;
    GC.collect();
    Words += GC.stats().WordsCopied - Before;
  }
  State.SetBytesProcessed(static_cast<int64_t>(Words * 4));
}
BENCHMARK(BM_CheneyCopyBandwidth);

BENCHMARK_MAIN();
