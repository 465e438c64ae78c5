//===- test_gc_torture.cpp - Kill-at-every-step GC resume sweeps ------------===//
//
// The GC torture harness (core/GcTorture.h): a deterministic mutator
// driven against each stepped collector, killed at every GC step boundary
// and resumed from the boundary's snapshot cut. The resumed run's digest
// (op count, traced reference counts, every live heap word, every cache
// counter) must be bit-identical to an uninterrupted run's — serially and
// with sharded cache workers, cross-checking, auditing, and per-boundary
// certification enabled.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/GcTorture.h"
#include "gcache/support/FaultInjector.h"

#include <gtest/gtest.h>

#include <string>

using namespace gcache;

namespace {

class GcTorture : public ::testing::Test {
protected:
  void TearDown() override {
    faultInjector().disarm();
    faultInjector().resetCounters();
  }

  static GcTortureConfig baseConfig(GcKind K) {
    GcTortureConfig C;
    C.Gc = K;
    C.Seed = 7;
    C.Ops = 120;
    C.StepBudget = 16;
    C.HeapBytes = 64 * 1024;
    C.NurseryBytes = 4 * 1024;
    return C;
  }

  static std::string tempSnap(const char *Name) {
    return std::string(::testing::TempDir()) + "/" + Name + ".snap";
  }

  /// Kills a run of \p C at every boundary via the gc-step-abort site
  /// (runGcTortureSweep): cutting at every boundary must not move the
  /// digest, and every resume must land on the uninterrupted run's digest.
  static void sweep(GcTortureConfig C, const char *SnapName) {
    C.SnapshotPath = tempSnap(SnapName);
    Expected<GcTortureSweepResult> R =
        runGcTortureSweep(C, GcTortureKill::Abort);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_GT(R->Reference.Collections, 3u);
    EXPECT_GT(R->Reference.GcSteps, 8u);
    ASSERT_GT(R->Boundaries, 8u);
    EXPECT_EQ(R->CutsTested, R->Boundaries);
    EXPECT_EQ(R->CutsFired, R->Boundaries)
        << "every armed kill must actually abort its run";
    EXPECT_FALSE(faultInjector().armed());
  }
};

//===--- Determinism --------------------------------------------------------===//

TEST_F(GcTorture, UninterruptedRunsAreDeterministic) {
  for (GcKind K :
       {GcKind::Cheney, GcKind::Generational, GcKind::MarkSweep}) {
    GcTortureConfig C = baseConfig(K);
    GcTortureDigest A = runGcTorture(C);
    GcTortureDigest B = runGcTorture(C);
    EXPECT_EQ(A, B) << A.toString() << "\nvs " << B.toString();
    EXPECT_GT(A.Collections, 0u);
    EXPECT_GT(A.TotalRefs, A.MutatorRefs);
  }
}

TEST_F(GcTorture, StepBudgetOnlyMovesTheStepCount) {
  GcTortureConfig Fine = baseConfig(GcKind::Generational);
  Fine.StepBudget = 2;
  GcTortureConfig Coarse = baseConfig(GcKind::Generational);
  Coarse.StepBudget = 512;
  GcTortureDigest A = runGcTorture(Fine);
  GcTortureDigest B = runGcTorture(Coarse);
  EXPECT_GT(A.GcSteps, B.GcSteps);
  // Everything simulated is budget-invariant.
  EXPECT_EQ(A.OpsRun, B.OpsRun);
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  EXPECT_EQ(A.MutatorRefs, B.MutatorRefs);
  EXPECT_EQ(A.AllocBytes, B.AllocBytes);
  EXPECT_EQ(A.Collections, B.Collections);
  EXPECT_EQ(A.GcInstructions, B.GcInstructions);
  EXPECT_EQ(A.HeapHash, B.HeapHash);
  EXPECT_EQ(A.CacheHash, B.CacheHash);
}

TEST_F(GcTorture, PhaseCertificationIsCounterInvisible) {
  for (GcKind K :
       {GcKind::Cheney, GcKind::Generational, GcKind::MarkSweep}) {
    GcTortureConfig Plain = baseConfig(K);
    GcTortureConfig Paranoid = baseConfig(K);
    Paranoid.PhaseParanoid = true;
    EXPECT_EQ(runGcTorture(Plain), runGcTorture(Paranoid));
  }
}

//===--- Kill-at-every-step resume sweeps (serial) ---------------------------===//

TEST_F(GcTorture, KillResumeSweepCheney) {
  sweep(baseConfig(GcKind::Cheney), "torture_cheney");
}

TEST_F(GcTorture, KillResumeSweepGenerational) {
  sweep(baseConfig(GcKind::Generational), "torture_gen");
}

TEST_F(GcTorture, KillResumeSweepMarkSweep) {
  sweep(baseConfig(GcKind::MarkSweep), "torture_marksweep");
}

//===--- Kill-at-every-step under threads + crosscheck + audit + certify -----===//

TEST_F(GcTorture, KillResumeSweepThreadedCheckedAudited) {
  for (GcKind K :
       {GcKind::Cheney, GcKind::Generational, GcKind::MarkSweep}) {
    GcTortureConfig C = baseConfig(K);
    C.Ops = 80;
    C.Threads = 2;
    C.CrossCheckEvery = 1;
    C.Audit = true;
    C.PhaseParanoid = true;
    sweep(C, "torture_threaded");
  }
}

//===--- The gc-step fault sites ---------------------------------------------===//

TEST_F(GcTorture, StepBoundaryFaultSitesCountInCensus) {
  GcTortureConfig C = baseConfig(GcKind::Cheney);
  faultInjector().resetCounters();
  GcTortureRun R(C);
  R.run();
  (void)R.digest();
  // Both boundary sites count once per boundary, armed or not.
  EXPECT_EQ(faultInjector().occurrences(FaultSite::GcStepAbort),
            R.boundariesSeen());
  EXPECT_EQ(faultInjector().occurrences(FaultSite::GcStepKill),
            R.boundariesSeen());
  EXPECT_GT(R.boundariesSeen(), 0u);
}

TEST_F(GcTorture, InjectedStepAbortResumesBitIdentically) {
  GcTortureConfig C = baseConfig(GcKind::MarkSweep);
  GcTortureDigest Want = runGcTorture(C);

  faultInjector().resetCounters();
  std::string Path = tempSnap("torture_fault_abort");
  GcTortureConfig Cutting = C;
  Cutting.SnapshotPath = Path;
  ASSERT_TRUE(faultInjector().armFromSpec("gc-step-abort:9").ok());
  {
    GcTortureRun R(Cutting);
    try {
      R.run();
      FAIL() << "armed gc-step-abort never fired";
    } catch (const StatusError &E) {
      EXPECT_EQ(E.status().code(), StatusCode::Aborted);
      EXPECT_NE(E.status().message().find("gc-step-abort"),
                std::string::npos);
    }
  }
  // resume() restores the injector's counters but drops the armed plan
  // (the kill it describes already happened).
  GcTortureRun Resumed(C);
  ASSERT_TRUE(Resumed.resume(Path).ok());
  EXPECT_FALSE(faultInjector().armed());
  EXPECT_EQ(Resumed.digest(), Want);
}

//===--- Sweep preconditions ------------------------------------------------===//

TEST_F(GcTorture, SweepOfARunThatNeverCollectsIsRejected) {
  GcTortureConfig C = baseConfig(GcKind::Cheney);
  C.Ops = 1; // One op cannot fill a 64 KiB semispace: no step boundary.
  C.SnapshotPath = tempSnap("torture_empty");
  ASSERT_EQ(runGcTorture(C).GcSteps, 0u);
  for (GcTortureKill Kill : {GcTortureKill::Abort, GcTortureKill::SigKill}) {
    Expected<GcTortureSweepResult> R = runGcTortureSweep(C, Kill);
    ASSERT_FALSE(R.ok()) << "a sweep that tested nothing must not pass";
    EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
    EXPECT_FALSE(faultInjector().armed());
  }
}

TEST_F(GcTorture, SingleKillSweepAndItsBounds) {
  GcTortureConfig C = baseConfig(GcKind::Cheney);
  C.SnapshotPath = tempSnap("torture_single");
  Expected<GcTortureSweepResult> R =
      runGcTortureSweep(C, GcTortureKill::Abort, /*OnlyAt=*/5);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->CutsTested, 1u);
  EXPECT_EQ(R->CutsFired, 1u);

  // A plan armed by the caller is dropped on the early return as well.
  faultInjector().arm({FaultSite::WorkerKill, 1}); // Never reached here.
  R = runGcTortureSweep(C, GcTortureKill::Abort, R->Boundaries + 1);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
  EXPECT_FALSE(faultInjector().armed());
}

//===--- Snapshot validation -------------------------------------------------===//

TEST_F(GcTorture, ResumeRejectsMismatchedConfiguration) {
  GcTortureConfig C = baseConfig(GcKind::Cheney);
  C.SnapshotPath = tempSnap("torture_mismatch");
  faultInjector().arm({FaultSite::GcStepAbort, 3});
  {
    GcTortureRun R(C);
    EXPECT_THROW(R.run(), StatusError);
  }
  GcTortureConfig Other = baseConfig(GcKind::Cheney);
  Other.Seed = 8; // Different workload: the snapshot must be refused.
  GcTortureRun R2(Other);
  Status S = R2.resume(C.SnapshotPath);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt);
  EXPECT_NE(S.message().find("configuration"), std::string::npos);

  GcTortureConfig Wrong = baseConfig(GcKind::MarkSweep);
  GcTortureRun R3(Wrong);
  EXPECT_FALSE(R3.resume(C.SnapshotPath).ok());
}

} // namespace
