//===- main.cpp - gcbench: runs one workload of the benchmark --------------===//
///
/// \file
/// Runs one workload as a closed loop of passes for a fixed time and
/// prints its metrics, ending with one JSON line:
///
///   gcbench --workload <paper-grid|collect-analyse|trace-roundtrip>
///           --seed <n> --seconds <s> --trace <0|1>
///           [--scale <x>] [--goldens <file>]
///   gcbench --make-goldens --seeds <a,b,...> [--scale <x>] [--goldens <file>]
///
/// A pass runs the five programs once, each as setup (timed as set-up)
/// then run (timed as the workload). Every unit's integer results are
/// digested and compared with the golden for (workload, scale, seed,
/// program); a seed without goldens is checked against digests computed
/// first on the reference path (see Units.h). With --trace 1, untraced
/// and traced passes alternate and the per-layer metrics come from the
/// traced ones.
///
//===----------------------------------------------------------------------===//

#include "Tracing.h"
#include "Units.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace gcache;
using namespace perfbench;

namespace {

/// Program scale per workload, chosen so one pass takes about 1-3 s on a
/// 4-core x86 host and a 30 s run holds several passes.
double defaultScale(WorkloadKind K) {
  return K == WorkloadKind::TraceRoundtrip ? 0.05 : 0.1;
}

/// The speed of a host shared with other tenants drifts: on a 4-core x86
/// VM the same unit ran up to 2x slower from one pass to the next, and
/// whole runs were slower for minutes, with no steal time. A fixed kernel
/// timed between units tracks that drift (its median over a run correlated
/// at 0.84-0.90 with the workloads' pass times there), so each unit's
/// times are also reported scaled by CalibRefS over the kernel's time
/// around the unit: seconds on a host whose kernel takes CalibRefS. The
/// kernel sorts 256 K pseudo-random 32-bit keys (1 MB, within the core's
/// own L2), which took about CalibRefS on that VM.
constexpr double CalibRefS = 0.025;

class Calibration {
public:
  /// Times one run of the kernel, in seconds.
  double measure() {
    uint64_t X = 0x9E3779B97F4A7C15ull;
    for (uint32_t &K : Keys) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      K = static_cast<uint32_t>(X >> 32);
    }
    uint64_t T0 = nowNs();
    std::sort(Keys.begin(), Keys.end());
    double S = (nowNs() - T0) * 1e-9;
    Samples.push_back(S);
    return S;
  }
  const std::vector<double> &samples() const { return Samples; }

private:
  std::vector<uint32_t> Keys = std::vector<uint32_t>(256 * 1024);
  std::vector<double> Samples;
};

/// Trace files, checkpoints (in a per-process work-<pid> directory, removed
/// at the end of the run) and the traced run's spans go here.
constexpr const char *OutDir = ".bench_out";

std::string workDir() {
  return OutDir + std::string("/work-") + std::to_string(getpid());
}

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  double Scale = 0; ///< 0: defaultScale of the workload.
  std::string Goldens = "perfbench/goldens.txt";
  bool MakeGoldens = false;
  std::vector<uint64_t> Seeds;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "gcbench: %s\nusage: gcbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <x>] [--goldens <file>]"
               "\n       gcbench --make-goldens --seeds "
               "<a,b,...> [--scale <x>] [--goldens <file>]\n",
               Msg);
  std::exit(2);
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(S.c_str(), nullptr, 10);
  return true;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--make-goldens") {
      A.MakeGoldens = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      if (!parseU64(V, A.Seed))
        usage("--seed takes a whole number");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (*End || !(A.Seconds > 0))
        usage("--seconds takes a positive number");
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Trace = V == "1";
    } else if (Flag == "--scale") {
      A.Scale = std::strtod(V.c_str(), &End);
      if (*End || !(A.Scale > 0))
        usage("--scale takes a positive number");
    } else if (Flag == "--goldens") {
      A.Goldens = V;
    } else if (Flag == "--seeds") {
      std::stringstream SS(V);
      std::string Item;
      while (std::getline(SS, Item, ',')) {
        uint64_t S = 0;
        if (!parseU64(Item, S))
          usage("--seeds takes comma-separated whole numbers");
        A.Seeds.push_back(S);
      }
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  return A;
}

std::string scaleKey(double Scale) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%g", Scale);
  return Buf;
}

/// goldens.txt: "digest <workload> <scale> <seed> <program> <hex>" and
/// "output <scale> <program> <hex>" lines; '#' starts a comment.
struct Goldens {
  std::map<std::string, std::string> Digests; ///< "w scale seed prog" -> hex
  std::map<std::string, std::string> Outputs; ///< "scale prog" -> hex

  static std::string digestKey(const std::string &W, const std::string &Scale,
                               uint64_t Seed, const std::string &Prog) {
    return W + " " + Scale + " " + std::to_string(Seed) + " " + Prog;
  }

  bool load(const std::string &Path) {
    std::ifstream In(Path);
    if (!In)
      return false;
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream LS(Line);
      std::string Kind, A, B, C, D, E;
      LS >> Kind;
      if (Kind == "digest" && LS >> A >> B >> C >> D >> E)
        Digests[A + " " + B + " " + C + " " + D] = E;
      else if (Kind == "output" && LS >> A >> B >> C)
        Outputs[A + " " + B] = C;
    }
    return true;
  }
};

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// Resets the kernel's peak-resident-set mark, so the reported peak
/// covers only the measured passes (not the control or reference runs).
void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set in MB since resetPeakRss (VmHWM), falling back to the
/// whole-process ru_maxrss where /proc is unavailable.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
};

/// The per-layer metrics of one traced pass; \p Self receives each layer's
/// self time (for the share-of-wall metrics).
std::vector<Metric> layerMetrics(const SpanTotals &S, const UnitCounts &K,
                                 std::vector<Metric> &Self) {
  auto Per = [](double N, double Sec) { return Sec > 0 ? N / Sec : 0.0; };
  std::vector<Metric> M;
  double VmSelf = S.self("vm.run");
  M.push_back({"vm.load_s", "s", S.total("vm.load")});
  M.push_back({"vm.self_s", "s", VmSelf});
  M.push_back({"vm.refs", "count", double(K.MutatorRefs)});
  M.push_back({"vm.insns", "count", double(K.Instructions)});
  M.push_back({"vm.refs_per_s", "refs/s", Per(K.MutatorRefs, VmSelf)});

  double GcSelf = S.self("gc");
  for (const char *P : {"begin", "root-scan", "trace", "sweep", "finish"})
    GcSelf += S.self(std::string("gc.") + P);
  M.push_back({"gc.self_s", "s", GcSelf});
  for (const char *P : {"root-scan", "trace", "sweep", "finish"})
    M.push_back({std::string("gc.") + P + "_s", "s",
                 S.self(std::string("gc.") + P)});
  M.push_back({"gc.collections", "count", double(K.Collections)});
  M.push_back({"gc.words_copied", "count", double(K.WordsCopied)});
  M.push_back({"gc.refs", "count", double(K.CollectorRefs)});

  double Flush = S.total("memsys.flush");
  double Bank = Flush;
  std::vector<Metric> Cols;
  for (int Block : {16, 32, 64, 128, 256}) {
    std::string N = "memsys.col" + std::to_string(Block);
    Cols.push_back({N + "_s", "s", S.total(N)});
    Bank += S.total(N);
  }
  M.push_back({"memsys.bank_s", "s", Bank});
  M.insert(M.end(), Cols.begin(), Cols.end());
  M.push_back({"memsys.flush_wait_s", "s", Flush});
  M.push_back({"memsys.flushes", "count", double(K.Flushes)});
  M.push_back({"memsys.accesses", "count", double(K.BankAccesses)});
  M.push_back({"memsys.accesses_per_s", "accesses/s",
               Per(K.BankAccesses, Bank)});
  M.push_back({"memsys.fetch_misses", "count", double(K.FetchMisses)});
  M.push_back({"memsys.writebacks", "count", double(K.Writebacks)});

  double Bt = S.total("analysis.blocktracker");
  double Mp = S.total("analysis.missplot");
  double Sum = S.total("analysis.summary");
  M.push_back({"analysis.blocktracker_s", "s", Bt});
  M.push_back({"analysis.missplot_s", "s", Mp});
  M.push_back({"analysis.summary_s", "s", Sum});

  double Write = S.total("trace.write");
  double Open = S.total("trace.open");
  double Decode = S.self("trace.decode");
  M.push_back({"trace.write_s", "s", Write});
  M.push_back({"trace.open_s", "s", Open});
  M.push_back({"trace.decode_s", "s", Decode});
  M.push_back({"trace.records", "count", double(K.TraceRecords)});
  M.push_back({"trace.bytes", "bytes", double(K.TraceBytes)});
  M.push_back({"trace.write_records_per_s", "records/s",
               Per(K.TraceRecords, Write)});

  // The replay call opens, decodes and simulates inside the library; the
  // probes timed those steps on their own (Units.cpp), so they come off
  // the replay span here.
  double Ckpt = S.total("core.checkpoint");
  double Replay = S.self("core.replay");
  if (Replay > 0)
    Replay = std::max(0.0, Replay - Open - Decode - Bank);
  M.push_back({"core.replay_s", "s", Replay});
  M.push_back({"core.checkpoint_s", "s", Ckpt});
  M.push_back({"core.checkpoints", "count", double(K.Checkpoints)});
  M.push_back({"core.checkpoint_bytes", "bytes", double(K.CheckpointBytes)});

  Self = {{"analysis", "s", Bt + Mp + Sum}, {"core", "s", Replay + Ckpt},
          {"gc", "s", GcSelf},         {"memsys", "s", Bank},
          {"trace", "s", Write + Open + Decode}, {"vm", "s", VmSelf}};
  return M;
}

/// One pass: its measured wall, CPU and set-up seconds, the wall and CPU
/// seconds scaled by the calibration (Norm*), and for a traced pass the
/// per-layer metrics (Wall is then the sum of the unit spans). Every
/// traced pass lists the same metrics in the same order.
struct PassResult {
  double Wall;
  double Cpu;
  double Setup;
  double RefsPerS;
  double NormWall;
  double NormCpu;
  double NormRefsPerS;
  std::vector<Metric> Layers;
  std::vector<Metric> LayerSelf;
};

/// Median over passes of field \p F.
template <typename Fn>
double medianOf(const std::vector<PassResult> &Passes, Fn F) {
  std::vector<double> V;
  for (const PassResult &P : Passes)
    V.push_back(F(P));
  return median(V);
}

/// Metric-by-metric medians of one list (Layers or LayerSelf) over passes.
std::vector<Metric> medianMetrics(const std::vector<PassResult> &Passes,
                                  std::vector<Metric> PassResult::*List) {
  std::vector<Metric> Out = Passes.front().*List;
  for (size_t I = 0; I != Out.size(); ++I)
    Out[I].Value = medianOf(
        Passes, [&](const PassResult &P) { return (P.*List)[I].Value; });
  return Out;
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

/// Writes goldens for every workload and each of A.Seeds, from the fast
/// path after checking it against the reference path unit by unit.
int makeGoldens(const Args &A) {
  if (A.Seeds.empty())
    usage("--make-goldens needs --seeds");
  std::string WorkDir = workDir();
  std::filesystem::create_directories(WorkDir);
  std::vector<std::string> Lines;
  std::map<std::string, uint64_t> Outputs; ///< "scale prog" -> hash
  bool Ok = true;
  for (WorkloadKind K : {WorkloadKind::PaperGrid, WorkloadKind::CollectAnalyse,
                         WorkloadKind::TraceRoundtrip}) {
    BenchConfig C;
    C.Kind = K;
    C.Scale = A.Scale > 0 ? A.Scale : defaultScale(K);
    C.WorkDir = WorkDir;
    sizeCollectors(C);
    std::string Scale = scaleKey(C.Scale);
    for (uint64_t Seed : A.Seeds) {
      C.Seed = Seed;
      for (const Workload &W : allWorkloads()) {
        UnitResult Fast = runUnitOnce(C, W, false);
        UnitResult Ref = runUnitOnce(C, W, true);
        std::string Why = !Fast.Error.empty() ? Fast.Error
                          : !Ref.Error.empty()
                              ? Ref.Error
                              : Fast.D.firstDifference(Ref.D);
        auto [It, New] =
            Outputs.try_emplace(Scale + " " + W.Name, Fast.OutputHash);
        if (Why.empty() && !New && It->second != Fast.OutputHash)
          Why = "checksum output differs between workloads or seeds";
        std::fprintf(stderr, "%s seed %llu %s: %s\n", workloadName(K),
                     static_cast<unsigned long long>(Seed), W.Name.c_str(),
                     Why.empty() ? Fast.D.hex().c_str() : Why.c_str());
        if (!Why.empty()) {
          Ok = false;
          continue;
        }
        Lines.push_back("digest " + std::string(workloadName(K)) + " " +
                        Scale + " " + std::to_string(Seed) + " " + W.Name +
                        " " + Fast.D.hex());
      }
    }
  }
  std::filesystem::remove_all(WorkDir);
  if (!Ok) {
    std::fprintf(stderr, "gcbench: fast and reference paths disagree; "
                         "goldens not written\n");
    return 1;
  }
  std::ofstream Out(A.Goldens);
  Out << "# gcbench goldens, written by gcbench --make-goldens after checking "
         "the fast path\n# against the reference path (see README.md).\n";
  for (const std::string &L : Lines)
    Out << L << "\n";
  for (const auto &[Key, Hash] : Outputs)
    Out << "output " << Key << " " << hex64(Hash) << "\n";
  return Out.good() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.MakeGoldens)
    return makeGoldens(A);

  BenchConfig C;
  if (!parseWorkload(A.Workload, C.Kind))
    usage("--workload must be paper-grid, collect-analyse or "
          "trace-roundtrip");
  Goldens G;
  if (!G.load(A.Goldens)) {
    std::fprintf(stderr, "gcbench: cannot read goldens '%s'\n",
                 A.Goldens.c_str());
    return 2;
  }
  C.Scale = A.Scale > 0 ? A.Scale : defaultScale(C.Kind);
  C.Seed = A.Seed;
  C.WorkDir = workDir();
  std::filesystem::create_directories(C.WorkDir);
  std::string Scale = scaleKey(C.Scale);
  std::printf("gcbench: workload %s, seed %llu, scale %s, %g s, trace %d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              Scale.c_str(), A.Seconds, A.Trace ? 1 : 0);

  // Collector sizing comes from a control run; untimed.
  if (C.Kind != WorkloadKind::PaperGrid)
    sizeCollectors(C);

  // Expected digest per program: the golden, or the reference path.
  std::map<std::string, std::string> Expected;
  bool FromGoldens = true;
  for (const Workload &W : allWorkloads()) {
    auto It = G.Digests.find(
        Goldens::digestKey(A.Workload, Scale, A.Seed, W.Name));
    if (It != G.Digests.end()) {
      Expected[W.Name] = It->second;
      continue;
    }
    FromGoldens = false;
    UnitResult Ref = runUnitOnce(C, W, true);
    if (!Ref.Error.empty()) {
      std::fprintf(stderr, "gcbench: reference run of %s failed: %s\n",
                   W.Name.c_str(), Ref.Error.c_str());
      std::filesystem::remove_all(C.WorkDir);
      return 1;
    }
    Expected[W.Name] = Ref.D.hex();
  }
  std::printf("gcbench: digests from %s\n",
              FromGoldens ? "goldens"
                          : "the reference path (no goldens for this seed)");

  Tracer Tr;
  Calibration Cal;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<PassResult> Untraced, TracedPasses;

  resetPeakRss();
  uint64_t Start = nowNs();
  double CalBefore = Cal.measure();
  for (uint32_t Pass = 0;; ++Pass) {
    bool Traced = A.Trace && Pass % 2 == 1;
    Tracer *T = Traced ? &Tr : nullptr;
    Tr.setRun(Pass);
    double SetupS = 0, WallS = 0, CpuS = 0, NormWallS = 0, NormCpuS = 0;
    UnitCounts Sum;
    for (const Workload &W : allWorkloads()) {
      UnitResult R;
      {
        std::unique_ptr<Unit> U = makeUnit(C, W, false, T);
        try {
          uint64_t T0 = nowNs();
          U->setup();
          uint64_t T1 = nowNs();
          double C0 = cpuSeconds();
          U->run();
          double UnitWall = (nowNs() - T1) * 1e-9;
          double UnitCpu = cpuSeconds() - C0;
          double CalAfter = Cal.measure();
          double HostScale = CalibRefS / ((CalBefore + CalAfter) / 2);
          CalBefore = CalAfter;
          WallS += UnitWall;
          CpuS += UnitCpu;
          NormWallS += UnitWall * HostScale;
          NormCpuS += UnitCpu * HostScale;
          SetupS += (T1 - T0) * 1e-9;
          U->finish(R);
        } catch (const std::exception &E) {
          R.Error = E.what();
        }
      }
      ++Attempted;
      std::string Why = R.Error;
      if (Why.empty() && R.D.hex() != Expected[W.Name])
        Why = "digest " + R.D.hex() + " != expected " + Expected[W.Name];
      auto Out = G.Outputs.find(Scale + " " + W.Name);
      if (Why.empty() && Out != G.Outputs.end() &&
          Out->second != hex64(R.OutputHash))
        Why = "checksum output line does not match its golden";
      if (!Why.empty()) {
        ++Failed;
        std::fprintf(stderr, "FAILED %s pass %u%s: %s\n", W.Name.c_str(),
                     Pass, Traced ? " (traced)" : "", Why.c_str());
      }
      Sum += R.Counts;
    }
    PassResult P{WallS,
                 CpuS,
                 SetupS,
                 WallS > 0 ? Sum.RefsDelivered / WallS : 0,
                 NormWallS,
                 NormCpuS,
                 NormWallS > 0 ? Sum.RefsDelivered / NormWallS : 0,
                 {},
                 {}};
    if (Traced) {
      SpanTotals S = Tr.totals(Pass, Pass);
      P.Wall = 0;
      for (const Workload &W : allWorkloads()) {
        double U = S.total("unit." + W.Name);
        P.Wall += U;
        P.Layers.push_back({"unit." + W.Name + "_s", "s", U});
      }
      for (const Metric &M : layerMetrics(S, Sum, P.LayerSelf))
        P.Layers.push_back(M);
    }
    std::printf("pass %u%s: setup %.4f s, wall %.4f s, cpu %.4f s, "
                "norm wall %.4f s\n",
                Pass, Traced ? " (traced)" : "", P.Setup, P.Wall, P.Cpu,
                P.NormWall);
    (Traced ? TracedPasses : Untraced).push_back(std::move(P));
    double Elapsed = (nowNs() - Start) * 1e-9;
    if (Elapsed >= A.Seconds && (!A.Trace || !TracedPasses.empty()))
      break;
  }
  std::filesystem::remove_all(C.WorkDir);

  double PeakRssMb = peakRssMb();
  std::printf("gcbench: %zu untraced and %zu traced passes; %llu of %llu "
              "units failed\n",
              Untraced.size(), TracedPasses.size(),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  std::printf("fail_ratio = %.6g ratio\n",
              Attempted ? double(Failed) / Attempted : 0.0);

  // Each figure is a median over passes (or over calibration samples).
  double Wall = medianOf(Untraced, [](const PassResult &P) { return P.Wall; });
  double CalibS = median(Cal.samples());
  std::vector<Metric> Out;
  if (!A.Trace) {
    // The unscaled figures are printed for reading, not gated.
    std::printf("wall_s (unscaled)            %.6g s\n", Wall);
    std::printf("refs_per_s (unscaled)        %.6g refs/s\n",
                medianOf(Untraced,
                         [](const PassResult &P) { return P.RefsPerS; }));
    std::printf("cpu_s (unscaled)             %.6g s\n",
                medianOf(Untraced, [](const PassResult &P) { return P.Cpu; }));
    std::printf("calib_s (kernel median)      %.6g s\n", CalibS);
    Out = {{"norm_wall_s", "s",
            medianOf(Untraced, [](const PassResult &P) { return P.NormWall; })},
           {"norm_refs_per_s", "refs/s",
            medianOf(Untraced,
                     [](const PassResult &P) { return P.NormRefsPerS; })},
           {"norm_cpu_s", "s",
            medianOf(Untraced, [](const PassResult &P) { return P.NormCpu; })},
           {"peak_rss_mb", "MB", PeakRssMb},
           {"setup_s", "s",
            medianOf(Untraced, [](const PassResult &P) { return P.Setup; })}};
  } else {
    double Traced =
        medianOf(TracedPasses, [](const PassResult &P) { return P.Wall; });
    Out.push_back({"calib_s", "s", CalibS});
    Out.push_back({"untraced_wall_s", "s", Wall});
    Out.push_back({"traced_wall_s", "s", Traced});
    Out.push_back({"tracing_overhead", "ratio",
                   Wall > 0 ? Traced / Wall - 1 : 0.0});
    for (const Metric &L : medianMetrics(TracedPasses, &PassResult::LayerSelf))
      Out.push_back({L.Name + ".share", "ratio", Wall > 0 ? L.Value / Wall : 0});
    std::vector<Metric> Layers =
        medianMetrics(TracedPasses, &PassResult::Layers);
    Out.insert(Out.end(), Layers.begin(), Layers.end());
    std::string SpansPath = std::string(OutDir) + "/spans-" + A.Workload + "-" +
                            std::to_string(A.Seed) + ".tsv";
    if (Tr.writeTsv(SpansPath))
      std::printf("gcbench: %zu spans written to %s\n", Tr.size(),
                  SpansPath.c_str());
  }
  for (const Metric &M : Out)
    std::printf("%-28s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  bool Correct = Failed == 0;
  printJson(Correct, Attempted, Failed, Out);
  return Correct ? 0 : 1;
}
