//===- ServeClient.cpp - Failover-transparent gcache_serve client ----------===//

#include "gcache/support/ServeClient.h"

#include "gcache/support/Random.h"
#include "gcache/support/Socket.h"
#include "gcache/support/Wire.h"

#include <algorithm>
#include <unistd.h>

using namespace gcache;

namespace {

void putU32Le(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64Le(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// One complete attempt: connect, Hello, Data*, End, Reply. A failed
/// Status with Transient=true means the transport died (retry); with
/// Transient=false the server rejected the request for good.
Status attemptOnce(const ServeClientOptions &Opts,
                   const std::vector<uint8_t> &Trace, uint64_t Records,
                   uint32_t Crc, std::string &ReplyJson, bool &Transient) {
  Transient = true;
  Expected<int> Fd = connectUnix(Opts.SocketPath);
  if (!Fd)
    return Fd.status();

  std::string Hello = "client=" + Opts.Client + "\nconfig=" +
                      Opts.ConfigSpec + "\n";
  if (!Opts.JobId.empty())
    Hello += "job=" + Opts.JobId + "\n";
  std::vector<uint8_t> Frame;
  encodeFrame(FrameType::Hello, Hello, Frame);
  Status S = sendAll(*Fd, Frame, Opts.TimeoutMs);

  size_t Sent = 0;
  while (S.ok() && Sent < Trace.size()) {
    size_t N = std::min(Opts.FrameBytes, Trace.size() - Sent);
    Frame.clear(); // encodeFrame appends
    encodeFrame(FrameType::Data, Trace.data() + Sent, N, Frame);
    S = sendAll(*Fd, Frame, Opts.TimeoutMs);
    Sent += N;
  }
  if (S.ok()) {
    std::vector<uint8_t> EndPayload;
    putU64Le(EndPayload, Records);
    putU32Le(EndPayload, Crc);
    Frame.clear();
    encodeFrame(FrameType::End, EndPayload.data(), EndPayload.size(), Frame);
    S = sendAll(*Fd, Frame, Opts.TimeoutMs);
  }
  if (S.ok()) {
    FrameDecoder Dec;
    gcache::Frame Reply;
    S = recvFrame(*Fd, Dec, Reply, Opts.TimeoutMs);
    if (S.ok()) {
      if (Reply.Type == FrameType::Reply) {
        ReplyJson = Reply.payloadText();
      } else if (Reply.Type == FrameType::Error) {
        std::string Code, Msg;
        splitErrorPayload(Reply.payloadText(), Code, Msg);
        // CANCELLED is what a retiring (superseded/draining) daemon sends
        // its clients: the request itself is fine, the server instance is
        // not — retry against its successor. Everything else is a verdict
        // on the request.
        Transient = Code == "CANCELLED";
        S = Status::failf(Transient ? StatusCode::Cancelled
                                    : StatusCode::InvalidArgument,
                          "%s: %s", Code.c_str(), Msg.c_str());
      } else {
        Transient = false;
        S = Status::fail(StatusCode::Corrupt, "unexpected reply frame type");
      }
    }
  }
  close(*Fd);
  return S;
}

} // namespace

Expected<ServeClientResult>
gcache::runServeClient(const ServeClientOptions &Opts,
                       const std::vector<uint8_t> &Trace, uint64_t Records,
                       uint32_t Crc) {
  ServeClientResult Out;
  Rng Jitter(Opts.RetrySeed * 0x9e3779b97f4a7c15ull + 1);
  int64_t FirstFailureUs = 0;
  auto NowUs = [] {
    timespec Ts{};
    clock_gettime(CLOCK_MONOTONIC, &Ts);
    return static_cast<int64_t>(Ts.tv_sec) * 1000000 + Ts.tv_nsec / 1000;
  };

  unsigned Attempts = Opts.JobId.empty() ? 1 : std::max(1u, Opts.MaxAttempts);
  Status Last;
  for (unsigned A = 1; A <= Attempts; ++A) {
    Out.Attempts = A;
    std::string Reply;
    bool Transient = true;
    Status S = attemptOnce(Opts, Trace, Records, Crc, Reply, Transient);
    if (S.ok()) {
      Out.ReplyJson = std::move(Reply);
      if (FirstFailureUs)
        Out.FailoverMs =
            static_cast<double>(NowUs() - FirstFailureUs) / 1000.0;
      return Out;
    }
    if (!Transient || A == Attempts)
      return S;
    if (!FirstFailureUs)
      FirstFailureUs = NowUs();
    // Jittered exponential backoff: delay in [Base/2, Base], Base
    // doubling per attempt — retries from many clients spread out instead
    // of stampeding the freshly promoted primary.
    uint64_t Base = static_cast<uint64_t>(Opts.BackoffMs)
                    << std::min(A - 1, 6u);
    uint64_t DelayMs = Base / 2 + Jitter.below(Base / 2 + 1);
    usleep(static_cast<useconds_t>(DelayMs * 1000));
    Last = S;
  }
  return Last; // Unreachable; the loop returns on its last attempt.
}
