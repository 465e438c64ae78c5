//===- test_crash_sweep.cpp - Power-loss crash-point sweep tests -------------===//
//
// Drives core/CrashSim.h at test scale: a capped sweep per collector must
// fire real power cuts, recover every one of them to the bit-identical
// reference digest, and observe checkpoint resumes along the way. A
// threaded sweep must reproduce the serial sweep's digest — the
// bit-identity claim extends through the sharded cache-bank replay. The
// shared sweep (core/CutSweep.h) is pinned on its own: which points a
// cap selects, and that an empty or diverging sweep is an error.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/CrashSim.h"
#include "gcache/core/CutSweep.h"

#include <gtest/gtest.h>

using namespace gcache;

namespace {

/// Small enough for test time, large enough that the trimmed trace still
/// holds a complete GC cycle of every collector.
CrashSweepOptions smallSweep(GcKind Gc) {
  CrashSweepOptions O;
  O.Gc = Gc;
  O.MaxCuts = 4;
  return O;
}

void expectHealthySweep(const CrashSweepResult &R) {
  EXPECT_GT(R.TraceRecords, 0u);
  EXPECT_LE(R.TraceRecords, CrashSweepOptions().MaxTraceRecords);
  EXPECT_GT(R.MutatingOps, 0u);
  EXPECT_EQ(R.CutsTested, 4u);
  EXPECT_EQ(R.CutsFired, 4u) << "every armed cut must actually kill its run";
  EXPECT_GT(R.Resumes, 0u) << "recoveries must load checkpoints, not replay "
                              "from scratch every time";
  EXPECT_NE(R.ReferenceDigest, 0u);
}

TEST(CrashSweep, CheneyRecoversEveryTestedCut) {
  Expected<CrashSweepResult> R = runCrashSweep(smallSweep(GcKind::Cheney));
  ASSERT_TRUE(R.ok()) << R.status().message();
  expectHealthySweep(*R);
}

TEST(CrashSweep, GenerationalRecoversEveryTestedCut) {
  Expected<CrashSweepResult> R =
      runCrashSweep(smallSweep(GcKind::Generational));
  ASSERT_TRUE(R.ok()) << R.status().message();
  expectHealthySweep(*R);
}

TEST(CrashSweep, MarkSweepRecoversEveryTestedCut) {
  Expected<CrashSweepResult> R = runCrashSweep(smallSweep(GcKind::MarkSweep));
  ASSERT_TRUE(R.ok()) << R.status().message();
  expectHealthySweep(*R);
}

TEST(CrashSweep, ThreadedSweepMatchesSerialDigest) {
  Expected<CrashSweepResult> Serial = runCrashSweep(smallSweep(GcKind::Cheney));
  ASSERT_TRUE(Serial.ok()) << Serial.status().message();

  CrashSweepOptions Threaded = smallSweep(GcKind::Cheney);
  Threaded.Threads = 2;
  Threaded.MaxCuts = 2;
  Expected<CrashSweepResult> R = runCrashSweep(Threaded);
  ASSERT_TRUE(R.ok()) << R.status().message();
  EXPECT_EQ(R->CutsFired, 2u);
  EXPECT_EQ(R->ReferenceDigest, Serial->ReferenceDigest)
      << "the sharded replay must be bit-identical to the serial one";
}

TEST(CrashSweep, SingleCutTestsTheFirstOperation) {
  CrashSweepOptions O = smallSweep(GcKind::Cheney);
  O.MaxCuts = 1;
  Expected<CrashSweepResult> R = runCrashSweep(O);
  ASSERT_TRUE(R.ok()) << R.status().message();
  EXPECT_EQ(R->CutsTested, 1u);
  EXPECT_EQ(R->CutsFired, 1u);
}

TEST(CutSweep, CapsSpreadEvenlyWithBothEndpoints) {
  using V = std::vector<uint64_t>;
  EXPECT_EQ(cutPoints(5, 0), (V{1, 2, 3, 4, 5}));
  EXPECT_EQ(cutPoints(5, 1), (V{1}));
  EXPECT_EQ(cutPoints(5, 2), (V{1, 5}));
  EXPECT_EQ(cutPoints(5, 4), (V{1, 2, 3, 5}));
  EXPECT_EQ(cutPoints(5, 5), (V{1, 2, 3, 4, 5}));
  EXPECT_EQ(cutPoints(5, 9), (V{1, 2, 3, 4, 5}));
  EXPECT_EQ(cutPoints(100, 3), (V{1, 50, 100}));
  EXPECT_EQ(cutPoints(0, 3), V{});
}

TEST(CutSweep, EmptyOrDivergingSweepsFail) {
  auto Fire = [](uint64_t) -> Expected<std::optional<uint32_t>> {
    return std::optional<uint32_t>();
  };
  auto RecoverTo = [](uint32_t D) {
    return [D](uint64_t) -> Expected<uint32_t> { return D; };
  };
  Expected<CutSweepCounts> Empty = runCutSweep(7u, 0, 0, 0, Fire, RecoverTo(7));
  ASSERT_FALSE(Empty.ok());
  EXPECT_EQ(Empty.status().code(), StatusCode::InvalidArgument);

  Expected<CutSweepCounts> Good = runCutSweep(7u, 4, 2, 0, Fire, RecoverTo(7));
  ASSERT_TRUE(Good.ok()) << Good.status().message();
  EXPECT_EQ(Good->Tested, 2u);
  EXPECT_EQ(Good->Fired, 2u);

  Expected<CutSweepCounts> Bad = runCutSweep(7u, 4, 0, 3, Fire, RecoverTo(8));
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), StatusCode::Divergence);
  EXPECT_EQ(Bad.status().message().rfind("cut 3 of 4:", 0), 0u)
      << Bad.status().message();
}

} // namespace
