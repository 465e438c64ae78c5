//===- ServeClient.h - Failover-transparent gcache_serve client -*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the trace service's high-availability story: a small
/// library that streams one trace to a gcache_serve daemon and survives a
/// primary failover in the middle of doing so.
///
/// The contract (core/TraceService.h "Idempotent jobs"): the caller names
/// the job with a stable id (`JobId`); each attempt connects, sends
/// Hello + Data + End, and waits for the Reply. When the transport dies —
/// the primary crashed, was superseded, or cancelled us while retiring —
/// the client reconnects with jittered exponential backoff and replays the
/// identical request. Because the id rides in the Hello, the server
/// dedups: a job that already completed returns its cached reply
/// byte-identical, and a retry that races the in-flight simulation
/// attaches as a waiter. A replayed request therefore never
/// double-simulates, and the reply the caller finally sees is the same
/// bytes an uninterrupted run would have produced.
///
/// Used by bench/serve_loadgen.cpp --failover and tests/test_serve.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_SERVECLIENT_H
#define GCACHE_SUPPORT_SERVECLIENT_H

#include "gcache/support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gcache {

struct ServeClientOptions {
  std::string SocketPath;
  std::string Client = "client";
  std::string ConfigSpec = "size=64k,block=64";
  /// Idempotent job id ("" = none: a retry could double-simulate, so the
  /// retry loop is only armed when an id is set).
  std::string JobId;
  size_t FrameBytes = 32768; ///< Data frame payload size.
  int TimeoutMs = 10000;     ///< Per-operation send/recv deadline.
  /// Reconnect policy: total connect+replay attempts, first backoff, and
  /// the jitter stream seed (distinct per client so a thundering herd of
  /// retries spreads out).
  unsigned MaxAttempts = 12;
  unsigned BackoffMs = 25;
  uint64_t RetrySeed = 1;
};

struct ServeClientResult {
  std::string ReplyJson; ///< The Reply frame payload.
  unsigned Attempts = 1; ///< 1 = no failover happened.
  /// Wall-clock from the first transport failure to the reply, in
  /// milliseconds; 0 when no attempt failed (the failover latency the
  /// load generator aggregates into percentiles).
  double FailoverMs = 0;
};

/// Streams \p Trace (raw v3 record bytes; \p Records records with
/// whole-stream CRC-32 \p Crc) to the daemon and returns the reply.
/// Transport failures and CANCELLED errors are retried per the options;
/// structured server rejections (CORRUPT, RESOURCE_EXHAUSTED, ...) are
/// returned as failed Status without retry.
Expected<ServeClientResult> runServeClient(const ServeClientOptions &Opts,
                                           const std::vector<uint8_t> &Trace,
                                           uint64_t Records, uint32_t Crc);

} // namespace gcache

#endif // GCACHE_SUPPORT_SERVECLIENT_H
