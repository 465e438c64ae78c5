//===- TraceService.h - Fault-tolerant streaming trace service --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gcache_serve daemon core: a single-threaded poll(2) event loop
/// accepting CRC-framed v3 reference traces (support/Wire.h) over a
/// Unix-domain socket — or one session over the stdin/stdout pipe pair —
/// and multiplexing the client simulations across a bounded pool of
/// crash-contained forked workers (core/WorkerPool.h).
///
/// Robustness properties, each provable under deterministic fault
/// injection (tests/test_serve.cpp):
///
///  - *Admission control*: a connection beyond --max-clients, or a Hello
///    whose configs would push the committed memory estimate past
///    --mem-budget, is refused with a structured RESOURCE_EXHAUSTED Error
///    frame instead of degrading everyone.
///  - *Per-connection validation*: every frame is CRC-checked and every
///    record opcode validated incrementally as it arrives
///    (trace/TraceFile.h IncrementalTraceDecoder), so a malformed or
///    truncated stream is dropped with a diagnostic Error frame at the
///    exact frame where the damage occurs — the server and every other
///    connection are untouched.
///  - *Backpressure*: replies go through a bounded per-connection
///    SendQueue; a client too slow to drain it, or idle past
///    --idle-timeout, is evicted on a deadline, never buffered without
///    limit.
///  - *Crash containment*: simulations run in forked workers; a dead
///    worker is respawned and its job retried with backoff from its last
///    checkpoint, then denied — the daemon itself never dies with a job.
///  - *Graceful drain*: SIGTERM stops accepting, drains in-flight jobs to
///    resumable partial checkpoints (spool + snapshot stay in --dir,
///    listed in the manifest), and exits 3. A job still queued, or
///    waiting out a retry backoff, is listed with its spool and no
///    checkpoint: its resume starts from record 0.
///  - *Dedup*: streams sharing a validated (config, byte-prefix, CRC) key
///    seed late joiners from an earlier job's checkpoint snapshot instead
///    of re-simulating the shared prefix; hits are counted in the
///    manifest.
///  - *High availability*: with --repl-listen the daemon is a replicating
///    primary — every accepted spool chunk, worker checkpoint cut, and
///    completed result ships to an attached standby (--standby-of) over
///    GSF1 ReplData frames, and a Heartbeat lease keeps exactly one
///    daemon primary. A standby whose lease expires promotes itself:
///    it takes over the client socket path, reconstructs job state from
///    the replicated spools and checkpoints, resubmits complete jobs
///    (Resume), and registers replicated checkpoints as dedup seeds so
///    reconnecting clients never re-simulate a covered prefix. Split
///    brain is fenced by socket-path identity: a primary that finds the
///    listening path rebound to another daemon cancels its clients and
///    exits ServeExitSuperseded. See EXPERIMENTS.md "High availability".
///  - *Idempotent jobs*: a Hello may carry `job=<id>`; a completed job's
///    reply is cached in a bounded replay registry (replicated to the
///    standby), so a client that retries after a failover gets the
///    original reply byte-identical instead of a second simulation, and
///    a retry that races the in-flight job attaches to it as a waiter.
///
/// The live manifest (counters, worker state, partials) is written
/// atomically to <dir>/serve_manifest.json and served to any client as a
/// Status frame in reply to StatusReq.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_TRACESERVICE_H
#define GCACHE_CORE_TRACESERVICE_H

#include "gcache/core/WorkerPool.h"
#include "gcache/support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gcache {

/// Daemon configuration (bench/gcache_serve.cpp flag surface).
struct ServeOptions {
  std::string SocketPath; ///< Unix-domain listener ("" in stdin mode).
  std::string Dir;        ///< Spool/checkpoint/manifest directory.
  bool Stdin = false;     ///< Serve one session over fd 0/1, then exit 0.
  unsigned Workers = 2;
  unsigned MaxClients = 64;
  uint64_t MemBudgetBytes = 0;  ///< 0 = unlimited.
  uint64_t MaxSpoolBytes = 1u << 30; ///< Per-connection spool cap.
  unsigned IdleTimeoutMs = 30000;    ///< Slow/idle client eviction.
  unsigned MaxRetries = 2;
  unsigned BackoffMs = 50;
  uint64_t CheckpointEveryRecords = 100000; ///< 0 = drain-only checkpoints.
  size_t SendQueueBytes = 256u << 10;
  bool Dedup = true;
  unsigned DrainGraceMs = 10000; ///< SIGTERM: wait this long for partials.
  /// When non-empty, an empty file created once the listener is ready
  /// (tests and scripts synchronize on it instead of sleeping).
  std::string ReadyFile;

  // Validation modes applied to every job (the failover bit-identity
  // proofs run the whole service under --crosscheck --audit [--threads]).
  uint64_t CrosscheckEvery = 0; ///< Shadow-oracle period (0 = off).
  /// Conservation audits at checkpoints/end, and at every manifest write
  /// a check that each partials[] spool/checkpoint exists (exit 1 if not).
  bool Audit = false;
  unsigned Threads = 0;         ///< Bank shard threads per worker (0 = serial).

  // High availability (see the file comment).
  std::string ReplListenPath; ///< Primary: accept a standby here.
  std::string StandbyOf;      ///< Standby: the primary's --repl-listen path.
  unsigned HeartbeatMs = 100; ///< Primary: lease renewal period.
  unsigned LeaseMs = 1000;    ///< Standby: promote after this much silence.
  uint64_t ReplQueueBytes = 64u << 20; ///< Replication send-queue bound.
  unsigned ReplayCap = 1024;  ///< Replay-registry entries kept (FIFO).
  /// When non-empty, an empty file created the moment a standby promotes
  /// itself to primary (tests and scripts synchronize on it).
  std::string PromotedFile;
};

/// Exit codes (same taxonomy as the supervised runner, core/Supervisor.h):
/// 0 = clean completion (stdin session served, or a standby terminated
/// before promotion — it held no client state), 1 = internal failure,
/// 2 = bad flags (the bench main exits before run()), 3 = SIGTERM drain,
/// 4 = superseded (the socket-identity fence found another primary bound
/// to the client path; this daemon cancelled its clients and retired).
constexpr int ServeExitOk = 0;
constexpr int ServeExitFailure = 1;
constexpr int ServeExitBadFlags = 2;
constexpr int ServeExitDrained = 3;
constexpr int ServeExitSuperseded = 4;

/// The daemon. Construct, then run() until drained (socket mode) or the
/// single session completes (stdin mode).
class TraceService {
public:
  explicit TraceService(ServeOptions Opts);
  ~TraceService();

  /// Runs the event loop; returns the process exit code (see ServeExit*).
  int run();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace gcache

#endif // GCACHE_CORE_TRACESERVICE_H
