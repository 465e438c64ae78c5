//===- Units.cpp - The benchmark's workloads, one program at a time --------===//

#include "Units.h"

#include "bench/BenchCommon.h"

#include "gcache/analysis/BlockTracker.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"
#include "gcache/vm/SchemeSystem.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace gcache;
using namespace perfbench;

namespace {

/// trace-roundtrip: replay checkpoint period, besides the cut the replay
/// makes at every GC boundary.
constexpr uint64_t ReplayEveryRecords = 1u << 20;
/// trace-roundtrip: shard workers of the replay bank. With the calling
/// thread the workload uses three threads.
constexpr unsigned ShardWorkers = 2;

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "paper-grid", "collect-analyse", "trace-roundtrip"};
  return Names;
}

uint64_t hashVector(const std::vector<uint64_t> &V) {
  return fnv1a(V.data(), V.size() * sizeof(uint64_t));
}

void addCounting(Digest &D, const std::string &P, const CountingSink &C) {
  D.add(P + "loads.mut", C.loads(Phase::Mutator));
  D.add(P + "stores.mut", C.stores(Phase::Mutator));
  D.add(P + "loads.gc", C.loads(Phase::Collector));
  D.add(P + "stores.gc", C.stores(Phase::Collector));
  D.add(P + "alloc_bytes", C.allocatedBytes());
  D.add(P + "collections", C.collections());
}

void addStats(Digest &D, const std::string &P, const RunStats &S) {
  D.add(P + "insns", S.Instructions);
  D.add(P + "extra_insns", S.ExtraInstructions);
  D.add(P + "dynamic_bytes", S.DynamicBytes);
  D.add(P + "gc.collections", S.Gc.Collections);
  D.add(P + "gc.major", S.Gc.MajorCollections);
  D.add(P + "gc.objects_copied", S.Gc.ObjectsCopied);
  D.add(P + "gc.words_copied", S.Gc.WordsCopied);
  D.add(P + "gc.insns", S.Gc.Instructions);
}

/// Every counter of every cache for both phases, in a fixed order so a
/// grid split over several banks digests like one bank.
void addCaches(Digest &D, std::vector<const Cache *> Caches, UnitCounts &U) {
  std::sort(Caches.begin(), Caches.end(), [](const Cache *A, const Cache *B) {
    const CacheConfig &X = A->config(), &Y = B->config();
    return std::tuple(X.BlockBytes, X.SizeBytes, X.WriteMiss) <
           std::tuple(Y.BlockBytes, Y.SizeBytes, Y.WriteMiss);
  });
  for (const Cache *C : Caches) {
    std::string P = "cache." + C->config().label() + ".";
    for (Phase Ph : {Phase::Mutator, Phase::Collector}) {
      const CacheCounters &K = C->counters(Ph);
      std::string Q = P + (Ph == Phase::Mutator ? "mut." : "gc.");
      D.add(Q + "loads", K.Loads);
      D.add(Q + "stores", K.Stores);
      D.add(Q + "fetch_misses", K.FetchMisses);
      D.add(Q + "nofetch_misses", K.NoFetchMisses);
      D.add(Q + "writebacks", K.Writebacks);
      D.add(Q + "write_throughs", K.WriteThroughs);
      U.BankAccesses += K.refs();
      U.FetchMisses += K.FetchMisses;
      U.Writebacks += K.Writebacks;
    }
    if (C->config().TrackPerBlockStats) {
      D.add(P + "block_refs", hashVector(C->perBlockRefs()));
      D.add(P + "block_misses", hashVector(C->perBlockMisses()));
      D.add(P + "block_fetch_misses", hashVector(C->perBlockFetchMisses()));
    }
  }
}

std::vector<const Cache *> cachesOf(const std::vector<CacheBank *> &Banks) {
  std::vector<const Cache *> Out;
  for (CacheBank *B : Banks)
    for (size_t I = 0; I != B->size(); ++I)
      Out.push_back(&B->cache(I));
  return Out;
}

/// One Scheme system and its bus. The bus holds a CountingSink first; the
/// unit adds its sinks (or their proxies, then GcSpans) behind it.
struct LiveSystem {
  TraceBus Bus;
  CountingSink Counts;
  std::unique_ptr<SchemeSystem> Sys;

  void build(const BenchConfig &C, const Workload &W, SchemeSystemConfig Cfg,
             Tracer *T) {
    Cfg.Bus = &Bus;
    Cfg.LayoutSeed = C.Seed;
    Sys = std::make_unique<SchemeSystem>(Cfg);
    ScopedSpan S(T, "vm.load");
    Sys->loadDefinitions(W.Definitions);
  }

  void run(const BenchConfig &C, const Workload &W, Tracer *T) {
    ScopedSpan S(T, "vm.run");
    Sys->run(W.RunExpr(C.Scale));
  }

  /// The counting totals, run statistics and checksum line, under \p P.
  void digest(Digest &D, const std::string &P, UnitResult &R) const {
    addCounting(D, P, Counts);
    const RunStats &S = Sys->lastRunStats();
    addStats(D, P, S);
    const std::string &Out = Sys->vm().output();
    R.OutputHash = fnv1a(Out.data(), Out.size());
    D.add(P + "output", R.OutputHash);
    UnitCounts &U = R.Counts;
    U.MutatorRefs += Counts.mutatorRefs();
    U.CollectorRefs += Counts.totalRefs() - Counts.mutatorRefs();
    U.RefsDelivered += Counts.totalRefs();
    U.Instructions += S.Instructions;
    U.Collections += S.Gc.Collections;
    U.WordsCopied += S.Gc.WordsCopied;
  }
};

SchemeSystemConfig cheneyConfig(const BenchConfig &C, const Workload &W) {
  SchemeSystemConfig Cfg;
  Cfg.Gc = GcKind::Cheney;
  Cfg.SemispaceBytes = C.Semispace.at(W.Name);
  return Cfg;
}

//===----------------------------------------------------------------------===//
// paper-grid: no GC, the 40-configuration write-validate grid.
//===----------------------------------------------------------------------===//

class PaperGridUnit final : public Unit {
public:
  PaperGridUnit(const BenchConfig &C, const Workload &W, bool Reference,
                Tracer *T)
      : C(C), W(W), Reference(Reference), T(T) {}

  void setup() override {
    L.Bus.addSink(&L.Counts);
    CacheConfig Proto; // Write-validate, write-back, direct-mapped.
    if (T) {
      // One bank per block-size column, so each column's work is timed
      // where it happens.
      std::vector<ChunkProxy::Target> Targets;
      for (uint32_t Block : paperBlockSizes()) {
        Banks.push_back(std::make_unique<CacheBank>());
        Banks.back()->addSizeSweep(Proto, Block);
        Banks.back()->setBatched(true);
        std::string Span = "memsys.col" + std::to_string(Block);
        Targets.push_back({Banks.back().get(), Span, Span});
        ColumnSpans.push_back(Span);
      }
      Proxy = std::make_unique<ChunkProxy>(*T, Targets);
      Spans = std::make_unique<GcSpans>(*T);
      L.Bus.addSink(Proxy.get());
      L.Bus.addSink(Spans.get());
    } else {
      Banks.push_back(std::make_unique<CacheBank>());
      Banks.back()->addPaperGrid(Proto);
      Banks.back()->setBatched(!Reference);
      ColumnSpans.push_back("");
      L.Bus.addSink(Banks.back().get());
    }
    L.build(C, W, SchemeSystemConfig(), T);
  }

  void run() override {
    ScopedSpan U(T, "unit." + W.Name);
    L.run(C, W, T);
    if (Proxy)
      Proxy->drain();
    for (size_t I = 0; I != Banks.size(); ++I) {
      ScopedSpan S(T, ColumnSpans[I]);
      Banks[I]->flush();
    }
  }

  void finish(UnitResult &R) override {
    L.digest(R.D, "", R);
    std::vector<CacheBank *> Raw;
    for (auto &B : Banks)
      Raw.push_back(B.get());
    addCaches(R.D, cachesOf(Raw), R.Counts);
    R.Counts.Flushes = Banks.size();
  }

private:
  const BenchConfig &C;
  const Workload &W;
  bool Reference;
  Tracer *T;
  LiveSystem L;
  std::vector<std::unique_ptr<CacheBank>> Banks;
  std::vector<std::string> ColumnSpans;
  std::unique_ptr<ChunkProxy> Proxy;
  std::unique_ptr<GcSpans> Spans;
};

//===----------------------------------------------------------------------===//
// collect-analyse: Cheney and aggressive generational, analysis sinks only.
//===----------------------------------------------------------------------===//

class CollectUnit final : public Unit {
public:
  CollectUnit(const BenchConfig &C, const Workload &W, Tracer *T)
      : C(C), W(W), T(T) {}

  void setup() override {
    SchemeSystemConfig Gen;
    Gen.Gc = GcKind::Generational;
    Gen.SemispaceBytes = C.Semispace.at(W.Name);
    Gen.Generational.NurseryBytes = 64u << 10; // abl1's aggressive setting.
    Gen.Generational.OldSemispaceBytes = C.OldSemispace.at(W.Name);
    build(Runs[0], cheneyConfig(C, W));
    build(Runs[1], Gen);
  }

  void run() override {
    ScopedSpan U(T, "unit." + W.Name);
    for (Analysed &A : Runs) {
      A.L.run(C, W, T);
      if (A.Proxy)
        A.Proxy->drain();
      ScopedSpan S(T, "analysis.summary");
      A.Summary = A.Tracker->computeSummary();
    }
  }

  void finish(UnitResult &R) override {
    const char *Prefix[] = {"cheney.", "gen."};
    Digest &D = R.D;
    for (size_t I = 0; I != 2; ++I) {
      const Analysed &A = Runs[I];
      std::string P = Prefix[I];
      A.L.digest(D, P, R);
      const BlockSummary &S = A.Summary;
      D.add(P + "blocks.total_refs", S.TotalRefs);
      D.add(P + "blocks.dynamic", S.DynamicBlocks);
      D.add(P + "blocks.one_cycle", S.OneCycleBlocks);
      D.add(P + "blocks.multi_cycle", S.MultiCycleBlocks);
      D.add(P + "blocks.multi_active_le4", S.MultiCycleActiveLe4);
      D.add(P + "blocks.static", S.StaticBlocks);
      D.add(P + "blocks.busy_static", S.BusyStaticBlocks);
      D.add(P + "blocks.busy_dynamic", S.BusyDynamicBlocks);
      D.add(P + "blocks.busy_refs", S.BusyRefs);
      D.add(P + "blocks.runtime_vector_refs", S.RuntimeVectorRefs);
      D.add(P + "blocks.stack_refs", S.StackRefs);
      const MissPlot &M = *A.Plot;
      D.add(P + "missplot.refs", M.refsSeen());
      D.add(P + "missplot.columns", M.columns());
      D.add(P + "missplot.fetch_misses",
        M.cache().totalCounters().FetchMisses);
      uint64_t H = 0xcbf29ce484222325ull;
      uint32_t Blocks = M.cache().config().numBlocks();
      for (uint64_t Col = 0; Col != M.columns(); ++Col)
        for (uint32_t B = 0; B != Blocks; ++B)
          if (M.missedAt(Col, B)) {
            uint64_t Cell = Col * Blocks + B;
            H = fnv1a(&Cell, sizeof Cell, H);
          }
      D.add(P + "missplot.cells", H);
    }
  }

private:
  struct Analysed {
    LiveSystem L;
    std::unique_ptr<BlockTracker> Tracker;
    std::unique_ptr<MissPlot> Plot;
    std::unique_ptr<ChunkProxy> Proxy;
    std::unique_ptr<GcSpans> Spans;
    BlockSummary Summary;
  };

  void build(Analysed &A, const SchemeSystemConfig &Cfg) {
    // The hot runtime vector is the VM's first static allocation, at
    // Heap::StaticBase (as in exp3_block_behaviour).
    A.Tracker = std::make_unique<BlockTracker>(64, 64u << 10, Heap::StaticBase);
    A.Plot = std::make_unique<MissPlot>(
        CacheConfig{.SizeBytes = 64u << 10, .BlockBytes = 64});
    A.L.Bus.addSink(&A.L.Counts);
    if (T) {
      A.Proxy = std::make_unique<ChunkProxy>(
          *T, std::vector<ChunkProxy::Target>{
                  {A.Tracker.get(), "analysis.blocktracker",
                   "analysis.blocktracker"},
                  {A.Plot.get(), "analysis.missplot", "analysis.missplot"}});
      A.Spans = std::make_unique<GcSpans>(*T);
      A.L.Bus.addSink(A.Proxy.get());
      A.L.Bus.addSink(A.Spans.get());
    } else {
      A.L.Bus.addSink(A.Tracker.get());
      A.L.Bus.addSink(A.Plot.get());
    }
    A.L.build(C, W, Cfg, T);
  }

  const BenchConfig &C;
  const Workload &W;
  Tracer *T;
  Analysed Runs[2];
};

//===----------------------------------------------------------------------===//
// trace-roundtrip: record a Cheney run, replay it into a threaded bank.
//===----------------------------------------------------------------------===//

/// The 64 B size sweep under fetch-on-write with per-block statistics.
std::unique_ptr<CacheBank> roundtripBank() {
  auto Bank = std::make_unique<CacheBank>();
  CacheConfig Proto;
  Proto.WriteMiss = WriteMissPolicy::FetchOnWrite;
  Proto.TrackPerBlockStats = true;
  Bank->addSizeSweep(Proto, 64);
  return Bank;
}

/// The fields both roundtrip forms digest, in one order.
void digestRoundtrip(uint64_t Records, uint64_t Crc, uint64_t Replayed,
                     const CountingSink &ReplayCounts, CacheBank &Bank,
                     UnitResult &R) {
  Digest &D = R.D;
  D.add("trace.records", Records);
  D.add("trace.crc", Crc);
  D.add("replay.records", Replayed);
  addCounting(D, "replay.", ReplayCounts);
  addCaches(D, cachesOf({&Bank}), R.Counts);
}

/// Feeds the live stream to the in-memory trace encoder, whose running
/// record count and CRC are what a trace file's header and footer hold.
class EncodingSink final : public TraceSink {
public:
  void onRef(const Ref &R) override {
    Enc.ref(R);
    trim();
  }
  void onAlloc(Address A, uint32_t B) override {
    Enc.alloc(A, B);
    trim();
  }
  void onGcBegin() override { Enc.gcBegin(); }
  void onGcEnd() override { Enc.gcEnd(); }
  void onGcPhase(GcPhase P) override { Enc.gcPhase(P); }
  const TraceByteEncoder &encoder() const { return Enc; }

private:
  void trim() {
    if (Enc.bytes().size() >= (1u << 20))
      (void)Enc.takeBytes();
  }
  TraceByteEncoder Enc;
};

class RoundtripReferenceUnit final : public Unit {
public:
  RoundtripReferenceUnit(const BenchConfig &C, const Workload &W)
      : C(C), W(W) {}

  void setup() override {
    Bank = roundtripBank(); // Serial, per reference: the scalar path.
    L.Bus.addSink(&L.Counts);
    L.Bus.addSink(Bank.get());
    L.Bus.addSink(&Enc);
    L.build(C, W, cheneyConfig(C, W), nullptr);
  }

  void run() override { L.run(C, W, nullptr); }

  void finish(UnitResult &R) override {
    L.digest(R.D, "", R);
    uint64_t Records = Enc.encoder().recordCount();
    digestRoundtrip(Records, Enc.encoder().crc(), Records, L.Counts, *Bank, R);
  }

private:
  const BenchConfig &C;
  const Workload &W;
  LiveSystem L;
  std::unique_ptr<CacheBank> Bank;
  EncodingSink Enc;
};

class RoundtripUnit final : public Unit {
public:
  RoundtripUnit(const BenchConfig &C, const Workload &W, Tracer *T)
      : C(C), W(W), T(T), TracePath(C.WorkDir + "/" + W.Name + ".gct"),
        CkptBase(C.WorkDir + "/" + W.Name + ".ckpt") {}

  ~RoundtripUnit() override {
    std::error_code Ec;
    for (const std::string &P :
         {TracePath, TracePath + ".tmp", CkptBase + ".a", CkptBase + ".b",
          CkptBase + ".a.tmp", CkptBase + ".b.tmp"})
      std::filesystem::remove(P, Ec);
  }

  void setup() override {
    Bank = roundtripBank();
    Bank->setThreads(ShardWorkers);
    L.Bus.addSink(&L.Counts);
    if (T) {
      Proxy = std::make_unique<ChunkProxy>(
          *T, std::vector<ChunkProxy::Target>{
                  {&Writer, "trace.write", "trace.write"}});
      Spans = std::make_unique<GcSpans>(*T);
      L.Bus.addSink(Proxy.get());
      L.Bus.addSink(Spans.get());
    } else {
      L.Bus.addSink(&Writer);
    }
    L.build(C, W, cheneyConfig(C, W), T);
  }

  void run() override {
    {
      ScopedSpan U(T, "unit." + W.Name);
      {
        ScopedSpan S(T, "trace.write");
        check(Writer.open(TracePath));
      }
      L.run(C, W, T);
      if (Proxy)
        Proxy->drain();
      {
        ScopedSpan S(T, "trace.write");
        check(Writer.close());
      }
      replay();
    }
    if (T)
      probe();
  }

  void finish(UnitResult &R) override {
    Bank->setThreads(0);
    L.digest(R.D, "", R);
    digestRoundtrip(Writer.recordCount(), footerCrc(), Replayed, RCounts, *Bank,
                    R);
    UnitCounts &U = R.Counts;
    U.RefsDelivered += Replayed;
    U.TraceRecords = Writer.recordCount();
    std::error_code Ec;
    U.TraceBytes = std::filesystem::file_size(TracePath, Ec);
    if (CkptVfs) {
      U.Checkpoints = CkptVfs->checkpoints();
      U.CheckpointBytes = CkptVfs->bytes();
    }
    if (ProbeBank) {
      // The probe bank saw the same records as the replay bank; the
      // memsys layer numbers come from it, so it must agree.
      UnitCounts Unused;
      Digest Replay, Probe;
      addCaches(Replay, cachesOf({Bank.get()}), Unused);
      addCaches(Probe, cachesOf({ProbeBank.get()}), Unused);
      if (Replay.hex() != Probe.hex())
        R.Error = "probe bank disagrees with the replay bank at " +
                  Replay.firstDifference(Probe);
      U.Flushes = ProbeFlushes;
    }
  }

private:
  static void check(const Status &S) {
    if (!S.ok())
      throw StatusError(S);
  }

  void replay() {
    ScopedSpan S(T, "core.replay");
    ReplayCheckpointOptions Opts;
    Opts.SnapshotPath = CkptBase;
    Opts.EveryRefs = ReplayEveryRecords;
    std::unique_ptr<ScopedVfs> Scope;
    if (T) {
      CkptVfs = std::make_unique<CheckpointVfs>(*T, CkptBase);
      Scope = std::make_unique<ScopedVfs>(*CkptVfs);
    }
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(TracePath, *Bank, RCounts, Opts);
    if (!R.ok())
      throw StatusError(R.status());
    if (R->partial())
      throw StatusError(Status::failf(StatusCode::Cancelled,
                                      "replay ended partial: %s",
                                      R->OutcomeNote.c_str()));
    Replayed = R->RecordsReplayed;
  }

  /// The traced run's layer probes, outside the unit span: the replay
  /// above opens, decodes and simulates inside one library call, so the
  /// trace and memsys layers are timed by repeating each step on its own
  /// over the same file. Their times are subtracted from the replay span
  /// to give core.replay's self time.
  void probe() {
    TraceStream Stream;
    {
      ScopedSpan S(T, "trace.open");
      check(Stream.open(TracePath));
    }
    ProbeBank = roundtripBank();
    ProbeBank->setThreads(ShardWorkers);
    ChunkProxy P(*T, {{ProbeBank.get(), "memsys.col64", "memsys.flush"}});
    {
      ScopedSpan S(T, "trace.decode");
      TraceRecord Rec;
      while (Stream.next(Rec))
        Rec.dispatch(P);
      P.drain();
    }
    ScopedSpan S(T, "memsys.flush");
    ProbeBank->flush();
    ProbeFlushes = P.boundaryEvents() + 1;
  }

  uint64_t footerCrc() const {
    // Version >= 2 traces end in "GCTF" and the CRC-32 of all records.
    std::ifstream In(TracePath, std::ios::binary);
    char Tail[8] = {};
    if (!In.seekg(-8, std::ios::end) || !In.read(Tail, 8) ||
        std::memcmp(Tail, "GCTF", 4) != 0)
      return 0;
    uint32_t Crc = 0;
    for (int I = 3; I >= 0; --I)
      Crc = (Crc << 8) | static_cast<uint8_t>(Tail[4 + I]);
    return Crc;
  }

  const BenchConfig &C;
  const Workload &W;
  Tracer *T;
  std::string TracePath;
  std::string CkptBase;
  LiveSystem L;
  TraceWriter Writer;
  std::unique_ptr<CacheBank> Bank;
  CountingSink RCounts;
  uint64_t Replayed = 0;
  std::unique_ptr<ChunkProxy> Proxy;
  std::unique_ptr<GcSpans> Spans;
  std::unique_ptr<CheckpointVfs> CkptVfs;
  std::unique_ptr<CacheBank> ProbeBank;
  uint64_t ProbeFlushes = 0;
};

} // namespace

const char *perfbench::workloadName(WorkloadKind K) {
  return workloadNames()[static_cast<size_t>(K)].c_str();
}

bool perfbench::parseWorkload(const std::string &Name, WorkloadKind &K) {
  const auto &Names = workloadNames();
  auto It = std::find(Names.begin(), Names.end(), Name);
  if (It == Names.end())
    return false;
  K = static_cast<WorkloadKind>(It - Names.begin());
  return true;
}

std::string perfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

uint64_t perfbench::fnv1a(const void *Data, size_t Len, uint64_t H) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string Digest::hex() const {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Name, Value] : Fields) {
    H = fnv1a(Name.data(), Name.size(), H);
    H = fnv1a(&Value, sizeof Value, H);
  }
  return hex64(H);
}

std::string Digest::firstDifference(const Digest &O) const {
  size_t N = std::min(Fields.size(), O.Fields.size());
  for (size_t I = 0; I != N; ++I)
    if (Fields[I] != O.Fields[I])
      return Fields[I].first + " (" + std::to_string(Fields[I].second) +
             " vs " + std::to_string(O.Fields[I].second) + ")";
  if (Fields.size() != O.Fields.size())
    return "field count (" + std::to_string(Fields.size()) + " vs " +
           std::to_string(O.Fields.size()) + ")";
  return "";
}

void perfbench::sizeCollectors(BenchConfig &C) {
  for (const Workload &W : allWorkloads()) {
    ExperimentOptions Opts;
    Opts.Scale = C.Scale;
    Opts.Grid = CacheGridKind::None;
    ProgramRun Control = runProgram(W, Opts);
    C.Semispace[W.Name] = semispaceFor(Control);
    // bench/abl1_aggressive.cpp: the old generation's semispace.
    C.OldSemispace[W.Name] = static_cast<uint32_t>(
        (std::max<uint64_t>(Control.AllocBytes / 3, 1u << 20) + 0xffff) &
        ~0xffffull);
  }
}

UnitCounts &UnitCounts::operator+=(const UnitCounts &O) {
  RefsDelivered += O.RefsDelivered;
  MutatorRefs += O.MutatorRefs;
  CollectorRefs += O.CollectorRefs;
  Instructions += O.Instructions;
  Collections += O.Collections;
  WordsCopied += O.WordsCopied;
  BankAccesses += O.BankAccesses;
  FetchMisses += O.FetchMisses;
  Writebacks += O.Writebacks;
  Flushes += O.Flushes;
  TraceRecords += O.TraceRecords;
  TraceBytes += O.TraceBytes;
  Checkpoints += O.Checkpoints;
  CheckpointBytes += O.CheckpointBytes;
  return *this;
}

Unit::~Unit() = default;

std::unique_ptr<Unit> perfbench::makeUnit(const BenchConfig &C,
                                          const Workload &W, bool Reference,
                                          Tracer *T) {
  switch (C.Kind) {
  case WorkloadKind::PaperGrid:
    return std::make_unique<PaperGridUnit>(C, W, Reference, T);
  case WorkloadKind::CollectAnalyse:
    // No cache model runs here, so there is no fast path to check against:
    // the reference is the same composition run again.
    return std::make_unique<CollectUnit>(C, W, T);
  case WorkloadKind::TraceRoundtrip:
    if (Reference)
      return std::make_unique<RoundtripReferenceUnit>(C, W);
    return std::make_unique<RoundtripUnit>(C, W, T);
  }
  return nullptr;
}

UnitResult perfbench::runUnitOnce(const BenchConfig &C, const Workload &W,
                                  bool Reference) {
  UnitResult R;
  try {
    std::unique_ptr<Unit> U = makeUnit(C, W, Reference, nullptr);
    U->setup();
    U->run();
    U->finish(R);
  } catch (const StatusError &E) {
    R.Error = E.what();
  }
  return R;
}
