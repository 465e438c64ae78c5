//===- bank_bench.cpp - Paper-grid bank throughput to BENCH_bank.json -----===//
//
// Measures the refs/s of the full §4 paper-grid cache bank under its three
// execution modes — serial per-reference dispatch, serial batches through
// the all-sizes column engine (memsys/CacheColumn.h), and threaded shard
// workers — over the same young-heap-shaped reference stream as
// BM_BankPaperGrid, and
// writes the trajectory to a JSON file. Counters must be bit-identical
// across every mode; this binary verifies that before reporting any
// number, so a speedup can never come from simulating something else.
//
// Flags (besides the shared bench flags; --threads picks the threaded
// mode's worker count, --batch the batch size):
//   --refs=N                   references in the stream (default 1048576)
//   --repeat=N                 timed repetitions per mode; best is kept
//                              (default 3)
//   --out=<path>               JSON output (default BENCH_bank.json)
//   --require-batch-speedup=X  exit 1 unless batch refs/s >= X * scalar
//                              refs/s (CI smoke gate uses 1.0)
//
// JSON schema (one object):
//   {
//     "bench": "bank_paper_grid",
//     "refs": N, "configs": C, "batch_refs": B, "threads": T,
//     "modes": [ {"name": "...", "seconds": S, "refs_per_sec": R}, ... ],
//     "speedup_batch_vs_scalar": X, "speedup_threaded_vs_scalar": Y
//   }
//
// Exit codes: 0 ok, 1 counter mismatch across modes or a failed
// --require-batch-speedup gate, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Random.h"

#include <chrono>
#include <ctime>
#include <thread>

using namespace gcache;

namespace {

/// The BM_BankPaperGrid stream: 3/4 sequential allocation-style stores,
/// 1/4 random re-reads over a 16 MB window.
std::vector<Ref> makeStream(size_t N) {
  std::vector<Ref> Stream;
  Stream.reserve(N);
  Rng R(7);
  Address Frontier = Heap::DynamicBase;
  for (size_t I = 0; I != N; ++I) {
    if (I % 4 != 3) {
      Stream.push_back({Frontier, AccessKind::Store, Phase::Mutator});
      Frontier += 4;
    } else {
      Address A = Heap::DynamicBase +
                  (static_cast<Address>(R.below(1u << 24)) & ~3u);
      Stream.push_back({A, AccessKind::Load, Phase::Mutator});
    }
  }
  return Stream;
}

struct ModeResult {
  const char *Name;
  double Seconds = 0;
  double RefsPerSec = 0;
};

/// Feeds the stream through \p Bank \p Repeat times (resetting between
/// repetitions) and keeps the fastest wall-clock pass. The bank's counters
/// afterwards are those of exactly one pass, for cross-mode comparison.
ModeResult timeMode(const char *Name, CacheBank &Bank,
                    const std::vector<Ref> &Stream, unsigned Repeat) {
  ModeResult Out;
  Out.Name = Name;
  Out.Seconds = -1;
  for (unsigned Rep = 0; Rep != Repeat; ++Rep) {
    Bank.resetAll();
    auto T0 = std::chrono::steady_clock::now();
    for (const Ref &R : Stream)
      Bank.onRef(R);
    Bank.flush();
    double S = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
    if (Out.Seconds < 0 || S < Out.Seconds)
      Out.Seconds = S;
  }
  Out.RefsPerSec = Out.Seconds > 0 ? Stream.size() / Out.Seconds : 0;
  return Out;
}

/// True when every cache of the two banks holds identical counters.
bool sameCounters(const CacheBank &A, const CacheBank &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    for (Phase P : {Phase::Mutator, Phase::Collector}) {
      const CacheCounters &X = A.cache(I).counters(P);
      const CacheCounters &Y = B.cache(I).counters(P);
      if (X.Loads != Y.Loads || X.Stores != Y.Stores ||
          X.FetchMisses != Y.FetchMisses ||
          X.NoFetchMisses != Y.NoFetchMisses ||
          X.Writebacks != Y.Writebacks ||
          X.WriteThroughs != Y.WriteThroughs)
        return false;
    }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(
      Argc, Argv, {"refs", "repeat", "out", "require-batch-speedup"});

  Expected<unsigned> Refs = A.Opts.getStrictUnsigned("refs", 1u << 20);
  Expected<unsigned> Repeat = A.Opts.getStrictUnsigned("repeat", 3);
  Expected<double> Gate =
      A.Opts.getStrictDouble("require-batch-speedup", 0.0);
  for (const Status *S : {&Refs.status(), &Repeat.status(), &Gate.status()})
    if (!S->ok()) {
      std::fprintf(stderr, "error: %s\n", S->message().c_str());
      return 2;
    }
  if (*Refs == 0 || *Repeat == 0) {
    std::fprintf(stderr, "error: --refs and --repeat must be nonzero\n");
    return 2;
  }
  std::string OutPath = A.Opts.get("out", "BENCH_bank.json");
  size_t BatchRefs = A.BatchRefs ? A.BatchRefs : CacheBank::DefaultBatchRefs;
  unsigned Threads = A.Threads;
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads > 8)
      Threads = 8;
    if (Threads < 2)
      Threads = 2;
  }

  std::vector<Ref> Stream = makeStream(*Refs);

  CacheBank Scalar, Batch, Threaded;
  Scalar.addPaperGrid(CacheConfig{});
  Batch.addPaperGrid(CacheConfig{});
  Threaded.addPaperGrid(CacheConfig{});
  Batch.setBatched(true, BatchRefs);
  Threaded.setThreads(Threads, BatchRefs);

  ModeResult Modes[3] = {
      timeMode("serial-scalar", Scalar, Stream, *Repeat),
      timeMode("serial-batch", Batch, Stream, *Repeat),
      timeMode("threaded", Threaded, Stream, *Repeat),
  };
  Threaded.setThreads(0); // drain before reading counters

  // No speedup number is worth reporting unless every mode simulated the
  // exact same thing.
  if (!sameCounters(Scalar, Batch) || !sameCounters(Scalar, Threaded)) {
    std::fprintf(stderr,
                 "error: counters diverged across execution modes — the "
                 "measurement is void\n");
    return 1;
  }

  double BatchSpeedup = Modes[1].RefsPerSec / Modes[0].RefsPerSec;
  double ThreadSpeedup = Modes[2].RefsPerSec / Modes[0].RefsPerSec;

  std::printf("bank_bench: %u refs x %zu configs, batch %zu, %u threads, "
              "best of %u\n",
              *Refs, Scalar.size(), BatchRefs, Threads, *Repeat);
  for (const ModeResult &M : Modes)
    std::printf("  %-14s %8.3f s   %12.0f refs/s\n", M.Name, M.Seconds,
                M.RefsPerSec);
  std::printf("  batch vs scalar: %.2fx, threaded vs scalar: %.2fx\n",
              BatchSpeedup, ThreadSpeedup);

  // The output file is append-mode history: every run adds a timestamped
  // entry to the JSON array instead of erasing the previous trajectory.
  char Entry[2048];
  int Len = std::snprintf(
      Entry, sizeof(Entry),
      "{\n"
      "  \"bench\": \"bank_paper_grid\",\n"
      "  \"unix_time\": %lld,\n"
      "  \"refs\": %u,\n"
      "  \"configs\": %zu,\n"
      "  \"batch_refs\": %zu,\n"
      "  \"threads\": %u,\n"
      "  \"modes\": [\n",
      static_cast<long long>(std::time(nullptr)), *Refs, Scalar.size(),
      BatchRefs, Threads);
  std::string Obj(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  for (int I = 0; I != 3; ++I) {
    Len = std::snprintf(Entry, sizeof(Entry),
                        "    {\"name\": \"%s\", \"seconds\": %.6f, "
                        "\"refs_per_sec\": %.0f}%s\n",
                        Modes[I].Name, Modes[I].Seconds, Modes[I].RefsPerSec,
                        I == 2 ? "" : ",");
    Obj.append(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  }
  Len = std::snprintf(Entry, sizeof(Entry),
                      "  ],\n"
                      "  \"speedup_batch_vs_scalar\": %.3f,\n"
                      "  \"speedup_threaded_vs_scalar\": %.3f\n"
                      "}",
                      BatchSpeedup, ThreadSpeedup);
  Obj.append(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  if (appendBenchJson(OutPath, Obj)) {
    std::printf("appended to %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }

  if (*Gate > 0 && BatchSpeedup < *Gate) {
    std::fprintf(stderr,
                 "error: batch speedup %.2fx is below the required %.2fx\n",
                 BatchSpeedup, *Gate);
    return 1;
  }
  return 0;
}
