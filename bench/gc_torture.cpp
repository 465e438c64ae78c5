//===- gc_torture.cpp - Kill/resume GC torture driver -----------------------===//
//
// Operator tool for the GC torture harness (core/GcTorture.h): runs the
// deterministic synthetic mutator against a stepped collector and proves,
// through runGcTortureSweep, that a run killed at any GC step boundary
// resumes bit-identically from the snapshot cut at that boundary.
//
// Modes:
//   (default)           one uninterrupted run; print its digest
//   --kill-at=<n>       simulate a kill at global step boundary n (the
//                       gc-step-abort fault site's in-process Aborted
//                       throw), resume from the cut, and compare digests
//   --sweep             kill at EVERY step boundary, one child process per
//                       kill point: the child arms the gc-step-kill fault
//                       site for its boundary and genuinely dies by
//                       SIGKILL mid-cycle; the parent resumes from the
//                       snapshot the child left behind and compares the
//                       finished digest against the uninterrupted run's
//
// Flags (besides the shared bench flags --threads/--crosscheck/--audit/
// --paranoid[=phase]):
//   --gc=<kind>         cheney | generational | marksweep (default cheney)
//   --ops=<n>           mutator operations (default 300)
//   --seed=<n>          mutator decision seed (default 1)
//   --step-budget=<n>   collector work units per step (default 64)
//   --heap-bytes=<n>    semispace / whole-heap bytes (default 65536)
//   --nursery-bytes=<n> generational nursery bytes (default 16384)
//   --snapshot=<path>   where step boundaries cut (default gc_torture.snap)
//
// Exit codes: 0 every resume matched, 1 divergence or harness failure,
// 2 usage error (an unknown flag, a malformed number, a --kill-at beyond
// the run's boundaries, or a sweep of a run with no step boundaries).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/core/GcTorture.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(
      Argc, Argv,
      {"gc", "ops", "seed", "step-budget", "heap-bytes", "nursery-bytes",
       "snapshot", "kill-at", "sweep"});

  GcTortureConfig Cfg;
  std::string GcName = A.Opts.get("gc", "cheney");
  if (GcName == "cheney")
    Cfg.Gc = GcKind::Cheney;
  else if (GcName == "generational")
    Cfg.Gc = GcKind::Generational;
  else if (GcName == "marksweep")
    Cfg.Gc = GcKind::MarkSweep;
  else {
    std::fprintf(stderr,
                 "error: --gc must be cheney, generational, or marksweep "
                 "(got '%s')\n",
                 GcName.c_str());
    return 2;
  }
  Cfg.Seed = flagOrExit(A.Opts.getStrictUnsigned("seed", 1));
  Cfg.Ops = flagOrExit(A.Opts.getStrictUnsigned("ops", 300));
  Cfg.StepBudget = flagOrExit(A.Opts.getStrictUnsigned("step-budget", 64));
  Cfg.HeapBytes =
      flagOrExit(A.Opts.getStrictUnsigned("heap-bytes", 64 * 1024));
  Cfg.NurseryBytes =
      flagOrExit(A.Opts.getStrictUnsigned("nursery-bytes", 16 * 1024));
  Cfg.Threads = A.Threads;
  Cfg.CrossCheckEvery = A.CrossCheckEvery;
  Cfg.Audit = A.Audit;
  Cfg.PhaseParanoid = A.ParanoidPhase;

  uint64_t KillAt = flagOrExit(A.Opts.getStrictUnsigned("kill-at", 0));
  bool Sweep = A.Opts.getBool("sweep");
  if (Sweep && KillAt) {
    std::fprintf(stderr, "error: --sweep and --kill-at are exclusive\n");
    return 2;
  }

  if (!Sweep && !KillAt) {
    try {
      std::printf("gc-torture %s: %s\n", GcName.c_str(),
                  runGcTorture(Cfg).toString().c_str());
      return 0;
    } catch (const StatusError &E) {
      std::fprintf(stderr, "reference run: %s: %s\n",
                   statusCodeName(E.status().code()),
                   E.status().message().c_str());
      return 1;
    }
  }

  // --kill-at kills in process (the gc-step-abort throw); --sweep runs one
  // child process per boundary and SIGKILLs it for real (gc-step-kill).
  Cfg.SnapshotPath = A.Opts.get("snapshot", "gc_torture.snap");
  Expected<GcTortureSweepResult> R = runGcTortureSweep(
      Cfg, Sweep ? GcTortureKill::SigKill : GcTortureKill::Abort, KillAt);
  if (!R) {
    std::fprintf(stderr, "%s: %s\n",
                 statusCodeName(R.status().code()),
                 R.status().message().c_str());
    return R.status().code() == StatusCode::InvalidArgument ? 2 : 1;
  }
  std::printf("gc-torture %s: %s\n", GcName.c_str(),
              R->Reference.toString().c_str());
  std::printf("  %llu step boundaries, cuts digest-invisible\n",
              static_cast<unsigned long long>(R->Boundaries));
  if (KillAt)
    std::printf("  kill at boundary %llu: resumed bit-identically\n",
                static_cast<unsigned long long>(KillAt));
  else
    std::printf("  sweep: %llu SIGKILLed children, every resume "
                "bit-identical\n",
                static_cast<unsigned long long>(R->CutsFired));
  return 0;
}
