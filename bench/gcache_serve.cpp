//===- gcache_serve.cpp - Streaming trace service daemon -------------------===//
//
// The gcache_serve daemon: accepts CRC-framed v3 reference traces over a
// Unix-domain socket (or serves one session over stdin/stdout) and
// multiplexes the client simulations across a pool of crash-contained
// forked workers. See core/TraceService.h for the robustness contract and
// EXPERIMENTS.md "Serving traces" for the protocol.
//
// Flags:
//   --sock=PATH           Unix-domain socket to listen on (required unless
//                         --stdin)
//   --dir=PATH            spool/checkpoint/manifest directory (default
//                         "serve_dir")
//   --stdin               serve exactly one session over fd 0/1, exit 0
//   --workers=N           forked simulation workers (default 2)
//   --max-clients=N       admission cap on concurrent connections (64)
//   --mem-budget=B        committed-memory admission budget, k/m/g
//                         suffixes (default unlimited)
//   --max-spool=B         per-connection spool cap (default 1g)
//   --idle-timeout=MS     slow/idle client eviction deadline (30000)
//   --retries=N           crash retries per job before denial (2)
//   --backoff-ms=MS       first retry delay, doubling per attempt (50)
//   --checkpoint-every=N  checkpoint period in records (100000; 0 = only
//                         at drain)
//   --send-queue=B        per-connection reply queue bound (256k)
//   --no-dedup            disable shared-prefix checkpoint seeding
//   --drain-grace-ms=MS   SIGTERM: wait this long for partials (10000)
//   --ready-file=PATH     touch this file once the listener is up (a
//                         standby touches it at its first full sync)
//   --fault=SPEC          arm a fault plan `<site>:<n>[:<seed>]`
//                         (GCACHE_FAULT env; support/FaultInjector.h)
//
// Validation modes (applied to every job):
//   --crosscheck=N        shadow-oracle cross-check period (0 = off)
//   --audit               conservation audits at checkpoints and at end;
//                         every manifest's partials[] must name existing
//                         files (exit 1 otherwise)
//   --threads=N           bank shard threads per worker (0 = serial)
//
// High availability (EXPERIMENTS.md "High availability"):
//   --repl-listen=PATH    primary: accept a standby on this socket
//   --standby-of=PATH     run as the standby of the primary at PATH
//   --heartbeat-ms=MS     primary lease renewal period (100)
//   --lease-ms=MS         standby: promote after this much silence (1000)
//   --repl-queue=B        replication send-queue bound (64m)
//   --replay-cap=N        replay-registry entries kept (1024)
//   --promoted-file=PATH  touch this file the moment a standby promotes
//
// Exit codes: 0 = clean (stdin session served, or a standby terminated
// before promotion), 1 = internal failure, 2 = bad flags, 3 = SIGTERM
// drain (resumable partials in --dir), 4 = superseded (another primary
// took over the socket path; clients were cancelled).
//
//===----------------------------------------------------------------------===//

#include "gcache/core/TraceService.h"
#include "gcache/support/Budget.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"

#include <cstdio>

using namespace gcache;

int main(int Argc, char **Argv) {
  Options Opts = Options::parse(Argc, Argv);
  std::vector<std::string> Unknown = Opts.unknownFlags(
      {"sock", "dir", "stdin", "workers", "max-clients", "mem-budget",
       "max-spool", "idle-timeout", "retries", "backoff-ms",
       "checkpoint-every", "send-queue", "no-dedup", "drain-grace-ms",
       "ready-file", "fault", "crosscheck", "audit", "threads",
       "repl-listen", "standby-of", "heartbeat-ms", "lease-ms", "repl-queue",
       "replay-cap", "promoted-file"});
  if (!Unknown.empty()) {
    for (const std::string &F : Unknown)
      std::fprintf(stderr, "error: unknown flag --%s\n", F.c_str());
    return ServeExitBadFlags;
  }

  ServeOptions S;
  S.SocketPath = Opts.get("sock", "");
  S.Dir = Opts.get("dir", "serve_dir");
  S.Stdin = Opts.getBool("stdin", false);
  S.Dedup = !Opts.getBool("no-dedup", false);
  S.ReadyFile = Opts.get("ready-file", "");
  S.Audit = Opts.getBool("audit", false);
  S.ReplListenPath = Opts.get("repl-listen", "");
  S.StandbyOf = Opts.get("standby-of", "");
  S.PromotedFile = Opts.get("promoted-file", "");
  if (!S.Stdin && S.SocketPath.empty()) {
    std::fprintf(stderr, "error: --sock is required (or use --stdin)\n");
    return ServeExitBadFlags;
  }
  if (S.Stdin && (!S.ReplListenPath.empty() || !S.StandbyOf.empty())) {
    std::fprintf(stderr,
                 "error: --stdin cannot combine with --repl-listen or "
                 "--standby-of\n");
    return ServeExitBadFlags;
  }
  if (!S.StandbyOf.empty() && S.SocketPath.empty()) {
    std::fprintf(stderr,
                 "error: --standby-of needs --sock (the client socket this "
                 "standby takes over at promotion)\n");
    return ServeExitBadFlags;
  }

  Expected<unsigned> Workers = Opts.getStrictUnsigned("workers", 2);
  Expected<unsigned> MaxClients = Opts.getStrictUnsigned("max-clients", 64);
  Expected<unsigned> IdleMs = Opts.getStrictUnsigned("idle-timeout", 30000);
  Expected<unsigned> Retries = Opts.getStrictUnsigned("retries", 2);
  Expected<unsigned> Backoff = Opts.getStrictUnsigned("backoff-ms", 50);
  Expected<unsigned> CkptEvery =
      Opts.getStrictUnsigned("checkpoint-every", 100000);
  Expected<unsigned> DrainMs = Opts.getStrictUnsigned("drain-grace-ms", 10000);
  Expected<unsigned> Crosscheck = Opts.getStrictUnsigned("crosscheck", 0);
  Expected<unsigned> Threads = Opts.getStrictUnsigned("threads", 0);
  Expected<unsigned> HeartbeatMs = Opts.getStrictUnsigned("heartbeat-ms", 100);
  Expected<unsigned> LeaseMs = Opts.getStrictUnsigned("lease-ms", 1000);
  Expected<unsigned> ReplayCap = Opts.getStrictUnsigned("replay-cap", 1024);
  for (const auto *E :
       {&Workers, &MaxClients, &IdleMs, &Retries, &Backoff, &CkptEvery,
        &DrainMs, &Crosscheck, &Threads, &HeartbeatMs, &LeaseMs, &ReplayCap})
    if (!E->ok()) {
      std::fprintf(stderr, "error: %s\n", E->status().message().c_str());
      return ServeExitBadFlags;
    }
  S.Workers = *Workers;
  S.MaxClients = *MaxClients;
  S.IdleTimeoutMs = *IdleMs;
  S.MaxRetries = *Retries;
  S.BackoffMs = *Backoff;
  S.CheckpointEveryRecords = *CkptEvery;
  S.DrainGraceMs = *DrainMs;
  S.CrosscheckEvery = *Crosscheck;
  S.Threads = *Threads;
  S.HeartbeatMs = *HeartbeatMs;
  S.LeaseMs = *LeaseMs;
  S.ReplayCap = *ReplayCap;
  if (S.Workers == 0 || S.MaxClients == 0) {
    std::fprintf(stderr,
                 "error: --workers and --max-clients must be nonzero\n");
    return ServeExitBadFlags;
  }
  if (S.HeartbeatMs == 0 || S.LeaseMs == 0) {
    std::fprintf(stderr,
                 "error: --heartbeat-ms and --lease-ms must be nonzero\n");
    return ServeExitBadFlags;
  }

  struct ByteFlag {
    const char *Name;
    uint64_t *Dest;
  };
  uint64_t MemBudget = 0, MaxSpool = 0, SendQ = 0, ReplQ = 0;
  ByteFlag ByteFlags[] = {{"mem-budget", &MemBudget},
                          {"max-spool", &MaxSpool},
                          {"send-queue", &SendQ},
                          {"repl-queue", &ReplQ}};
  for (const ByteFlag &F : ByteFlags) {
    std::string V = Opts.get(F.Name, "");
    if (V.empty())
      continue;
    Expected<uint64_t> Bytes = parseByteSize(V, F.Name);
    if (!Bytes.ok()) {
      std::fprintf(stderr, "error: %s\n", Bytes.status().message().c_str());
      return ServeExitBadFlags;
    }
    *F.Dest = *Bytes;
  }
  S.MemBudgetBytes = MemBudget;
  if (MaxSpool)
    S.MaxSpoolBytes = MaxSpool;
  if (SendQ)
    S.SendQueueBytes = SendQ;
  if (ReplQ)
    S.ReplQueueBytes = ReplQ;

  Status Armed = faultInjector().armFromSpec(Opts.get("fault", ""));
  if (!Armed.ok()) {
    std::fprintf(stderr, "error: --fault: %s\n", Armed.message().c_str());
    return ServeExitBadFlags;
  }

  TraceService Service(std::move(S));
  return Service.run();
}
