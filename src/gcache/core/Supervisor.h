//===- Supervisor.h - Supervised experiment runner --------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervised experiment runner: long paper-scale sweeps run inside a
/// forked child watched by a supervisor parent. When the child crashes, is
/// killed, exceeds its timeout, or fast-aborts on a failing unit, the
/// parent restarts it; the restarted child resumes from the unit
/// snapshots in the checkpoint directory (core/Checkpoint.h), so finished
/// units are never re-computed and the interrupted unit re-runs
/// deterministically. A unit that keeps crashing is denied after N
/// retries: the next child marks it failed and continues with the rest of
/// the sweep (graceful degrade), and the whole run exits nonzero with a
/// machine-readable manifest of what happened.
///
/// The child (a support/ChildProcess) reports over its pipe, so stdout
/// stays a normal bench report and the checkpoint directory holds only
/// unit snapshots and the manifest:
///   unit <name>                                  before running a unit
///   outcome <name>\t<outcome>\t<coverage>\t<note> after it
/// A crash between the two is charged to the unit. Denials reach each new
/// child through the fork: the parent sets checkpointContext().DeniedUnits
/// first. The child's exit status says how the sweep ended:
///   0   sweep complete, all units passed
///   1   sweep complete, some units failed (recorded in the manifest)
///   2   bad flags (never retried)
///   3   sweep complete, some units are partial (budget/deadline drain)
///   75  supervised fast-abort: a unit failed and wants a retry
///   signal / timeout   crash; retried with backoff
///
/// Timeouts and operator signals are graceful: the parent sends SIGTERM
/// first, giving the child a grace window (--grace) to drain in-flight
/// work to a checkpoint and exit on its own — that drain is attributed as
/// a partial result, not a crash. Only a child that ignores the SIGTERM
/// past the grace window is SIGKILLed and restarted.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_SUPERVISOR_H
#define GCACHE_CORE_SUPERVISOR_H

#include "gcache/support/Status.h"

#include <functional>
#include <string>

namespace gcache {

/// The supervised fast-abort exit code (EX_TEMPFAIL): "this unit failed,
/// restart me so I can retry it from the snapshots".
constexpr int SupervisedAbortExit = 75;

/// Supervision policy.
struct SupervisorOptions {
  std::string CheckpointDir; ///< Snapshot/manifest directory.
  unsigned MaxRetries = 2;   ///< Retries per failing unit before denial.
  unsigned TimeoutSec = 0;   ///< Stop a child running longer (0 = never).
  /// Seconds between the timeout's SIGTERM (drain request) and the
  /// SIGKILL for a child that refuses to drain.
  unsigned GraceSec = 10;
  unsigned BackoffMs = 100;  ///< Sleep base between restarts (doubles).
  /// Hard cap on total child launches, against pathological crash loops
  /// that never reach unit attribution (0 = derived from MaxRetries).
  unsigned MaxLaunches = 0;
};

/// What superviseLoop resolved to.
struct SuperviseOutcome {
  bool InChild = false; ///< True in the forked child: return and run.
  int ExitCode = 0;     ///< Parent: the run's final exit code.
};

/// Runs the fork/monitor/restart loop. Returns with InChild=true in each
/// forked child — the caller then executes the actual sweep and exits. In
/// the parent it returns only when the run is over, with the final exit
/// code, after writing `manifest.json` into the checkpoint directory.
SuperviseOutcome superviseLoop(const SupervisorOptions &Opts);

/// Test harness: supervises \p Body as the child's payload (each launch
/// calls Body() in a fresh fork and _exits with its return value). Returns
/// the parent's final exit code.
int runSupervised(const SupervisorOptions &Opts,
                  const std::function<int()> &Body);

/// Child side of the protocol; both are no-ops outside a supervised child.
/// reportUnitStart charges any crash from here on to \p Unit;
/// reportUnitOutcome records how it ended (an outcome name, coverage in
/// [0, 1] or -1 when unknown, free-text note) and ends the charge.
void reportUnitStart(const std::string &Unit);
void reportUnitOutcome(const std::string &Unit, const char *Outcome,
                       double Coverage, const std::string &Note);

} // namespace gcache

#endif // GCACHE_CORE_SUPERVISOR_H
