//===- test_serve.cpp - Trace service robustness tests --------------------===//
//
// The correctness harness for the streaming trace service (bench/
// gcache_serve): the wire framing, the incremental record decoder, the
// worker pool's crash containment, and the daemon itself driven over real
// Unix-domain sockets from real forked processes.
//
// The headline guarantee, tested against every fault site: whatever the
// failure mode — a worker SIGKILLed mid-job, an injected CRC failure, a
// SIGTERM drain, a dedup seed from another client's checkpoint — the
// counters a client finally receives are bit-identical to a single-shot
// runServeJob() call on the same record stream.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Checkpoint.h"
#include "gcache/core/TraceService.h"
#include "gcache/core/WorkerPool.h"
#include "gcache/memsys/CacheConfig.h"
#include "gcache/support/Budget.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/ServeClient.h"
#include "gcache/support/SignalGuard.h"
#include "gcache/support/Socket.h"
#include "gcache/support/Wire.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gcache;

namespace {

// The daemon writes Error frames into sockets the test side may already
// have closed; without this the parent test process dies on SIGPIPE.
const int SigpipeIgnored = [] {
  std::signal(SIGPIPE, SIG_IGN);
  return 0;
}();

/// Every test touches process-wide governance state (fault injector,
/// cancel token, signal handlers); start and end from a clean slate.
struct GovernanceReset {
  GovernanceReset() { resetAll(); }
  ~GovernanceReset() { resetAll(); }
  static void resetAll() {
    processBudget().reset();
    faultInjector().disarm();
    SignalGuard::uninstall();
    checkpointContext() = CheckpointContext();
  }
};

std::string freshDir(const std::string &Tag) {
  static int Serial = 0;
  std::string D = std::string(::testing::TempDir()) + "/serve_" + Tag + "_" +
                  std::to_string(::getpid()) + "_" + std::to_string(Serial++);
  mkdir(D.c_str(), 0755);
  return D;
}

std::string readWholeFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::string();
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  std::fclose(F);
  return Data;
}

/// A deterministic v3 record stream: both phases, both access kinds,
/// allocations, GC windows — the same stream for the same (Refs, Seed).
struct Stream {
  std::vector<uint8_t> Bytes;
  uint64_t Records = 0;
  uint32_t Crc = 0;
};

Stream makeStream(unsigned Refs, uint32_t Seed) {
  TraceByteEncoder E;
  for (unsigned I = 0; I != Refs; ++I) {
    Address A = 0x1000 + ((Seed + I * 7919u) % 4096) * 16;
    E.ref({A, (I % 4) ? AccessKind::Store : AccessKind::Load, Phase::Mutator});
    if (I % 16 == 0)
      E.alloc(0x800000 + I * 32, 32);
    if (I % 64 == 32) {
      E.gcBegin();
      E.ref({0x200000 + I * 8, AccessKind::Load, Phase::Collector});
      E.gcEnd();
    }
  }
  Stream S;
  S.Records = E.recordCount();
  S.Crc = E.crc();
  S.Bytes = E.takeBytes();
  return S;
}

void writeSpool(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
}

/// Single-shot reference run: the reply the daemon must reproduce.
std::string directReply(const Stream &S, const std::string &Client,
                        const std::string &Config, const std::string &Dir) {
  std::string Spool = Dir + "/direct.spool";
  writeSpool(Spool, S.Bytes);
  ServeJob J;
  J.Client = Client;
  J.ConfigSpec = Config;
  J.SpoolPath = Spool;
  J.DeclaredRecords = S.Records;
  J.DeclaredCrc = S.Crc;
  Expected<ServeResult> R = runServeJob(J);
  EXPECT_TRUE(R) << (R ? "" : R.status().message());
  return R ? R->ReplyJson : std::string();
}

/// The counter tail of a reply JSON — everything from the first counter
/// key on. The head (client, outcome, resumed/seeded provenance flags)
/// legitimately differs across fault paths; the counters never may.
std::string countersOf(const std::string &ReplyJson) {
  size_t At = ReplyJson.find("\"mutator_loads\"");
  EXPECT_NE(At, std::string::npos) << ReplyJson;
  return At == std::string::npos ? ReplyJson : ReplyJson.substr(At);
}

//===----------------------------------------------------------------------===//
// Daemon harness: TraceService::run() in a real forked process.
//===----------------------------------------------------------------------===//

struct Daemon {
  pid_t Pid = -1;
  std::string Sock, Dir;

  /// SIGTERM (graceful drain) — run() exits on its own afterwards.
  void term() const { kill(Pid, SIGTERM); }

  /// Waits for exit; returns the exit code, or 128+signal.
  int waitExit() {
    int St = 0;
    EXPECT_EQ(waitpid(Pid, &St, 0), Pid);
    Pid = -1;
    if (WIFEXITED(St))
      return WEXITSTATUS(St);
    return WIFSIGNALED(St) ? 128 + WTERMSIG(St) : -1;
  }

  std::string manifest() const {
    return readWholeFile(Dir + "/serve_manifest.json");
  }

  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
};

/// Forks a daemon; \p Fault is armed inside the child only, so the test
/// process's own frame decoders never consume injector occurrences.
Daemon startDaemon(const std::function<void(ServeOptions &)> &Tune = {},
                   const std::string &Fault = "") {
  Daemon D;
  D.Dir = freshDir("d");
  D.Sock = D.Dir + "/sock";
  ServeOptions O;
  O.SocketPath = D.Sock;
  O.Dir = D.Dir;
  O.Workers = 2;
  O.CheckpointEveryRecords = 200;
  O.ReadyFile = D.Dir + "/ready";
  if (Tune)
    Tune(O);
  std::string Ready = O.ReadyFile;
  pid_t P = fork();
  if (P == 0) {
    GovernanceReset::resetAll();
    if (!Fault.empty())
      (void)faultInjector().armFromSpec(Fault);
    TraceService Service(std::move(O));
    _exit(Service.run());
  }
  D.Pid = P;
  for (int I = 0; I < 2000 && access(Ready.c_str(), F_OK) != 0; ++I)
    usleep(5000);
  EXPECT_EQ(access(Ready.c_str(), F_OK), 0) << "daemon never became ready";
  return D;
}

/// Forks a standby of \p Primary: it mirrors the primary's state over
/// \p ReplSock and takes over the primary's client socket path if it ever
/// promotes. Returns once the first full sync (SyncDone) has landed.
Daemon startStandby(const Daemon &Primary, const std::string &ReplSock,
                    const std::function<void(ServeOptions &)> &Tune = {},
                    const std::string &Fault = "") {
  Daemon D;
  D.Dir = freshDir("s");
  D.Sock = Primary.Sock;
  ServeOptions O;
  O.SocketPath = Primary.Sock;
  O.Dir = D.Dir;
  O.Workers = 2;
  O.CheckpointEveryRecords = 200;
  O.StandbyOf = ReplSock;
  O.HeartbeatMs = 25;
  O.LeaseMs = 250;
  O.ReadyFile = D.Dir + "/ready";
  O.PromotedFile = D.Dir + "/promoted";
  if (Tune)
    Tune(O);
  std::string Ready = O.ReadyFile;
  pid_t P = fork();
  if (P == 0) {
    GovernanceReset::resetAll();
    if (!Fault.empty())
      (void)faultInjector().armFromSpec(Fault);
    TraceService Service(std::move(O));
    _exit(Service.run());
  }
  D.Pid = P;
  for (int I = 0; I < 2000 && access(Ready.c_str(), F_OK) != 0; ++I)
    usleep(5000);
  EXPECT_EQ(access(Ready.c_str(), F_OK), 0) << "standby never synced";
  return D;
}

//===----------------------------------------------------------------------===//
// Client side
//===----------------------------------------------------------------------===//

struct Client {
  int Fd = -1;
  FrameDecoder Dec;

  ~Client() { disconnect(); }

  void disconnect() {
    if (Fd >= 0)
      close(Fd);
    Fd = -1;
  }

  void connect(const std::string &Sock) {
    Expected<int> C = connectUnix(Sock);
    ASSERT_TRUE(C) << C.status().message();
    Fd = *C;
  }

  void send(FrameType Type, const void *Payload, size_t Len) {
    std::vector<uint8_t> F;
    encodeFrame(Type, Payload, Len, F);
    ASSERT_TRUE(sendAll(Fd, F).ok());
  }

  void hello(const std::string &Name, const std::string &Config) {
    std::string P = "client=" + Name + "\nconfig=" + Config + "\n";
    send(FrameType::Hello, P.data(), P.size());
  }

  /// Streams \p Bytes as Data frames of \p FrameBytes each.
  void data(const std::vector<uint8_t> &Bytes, size_t FrameBytes = 4096) {
    for (size_t At = 0; At < Bytes.size(); At += FrameBytes) {
      size_t N = std::min(FrameBytes, Bytes.size() - At);
      send(FrameType::Data, Bytes.data() + At, N);
    }
  }

  void end(uint64_t Records, uint32_t Crc) {
    uint8_t P[12];
    for (int I = 0; I != 8; ++I)
      P[I] = static_cast<uint8_t>(Records >> (8 * I));
    for (int I = 0; I != 4; ++I)
      P[8 + I] = static_cast<uint8_t>(Crc >> (8 * I));
    send(FrameType::End, P, sizeof(P));
  }

  /// Receives the next frame (10s deadline — generous, never load-bearing).
  Frame recv(int TimeoutMs = 10000) {
    Frame F;
    Status S = recvFrame(Fd, Dec, F, TimeoutMs);
    EXPECT_TRUE(S.ok()) << S.message();
    return F;
  }
};

struct Outcome {
  bool Ok = false;
  std::string Json; ///< Reply payload when Ok.
  std::string Code, Message; ///< Error split when !Ok.
};

/// Runs one whole session against the daemon and returns what came back.
Outcome runSession(const std::string &Sock, const Stream &S,
                   const std::string &Name, const std::string &Config,
                   int TimeoutMs = 10000) {
  Client C;
  C.connect(Sock);
  C.hello(Name, Config);
  C.data(S.Bytes);
  C.end(S.Records, S.Crc);
  Frame F = C.recv(TimeoutMs);
  Outcome O;
  if (F.Type == FrameType::Reply) {
    O.Ok = true;
    O.Json = F.payloadText();
  } else {
    EXPECT_EQ(F.Type, FrameType::Error);
    splitErrorPayload(F.payloadText(), O.Code, O.Message);
  }
  return O;
}

/// Fetches the live manifest over the wire (StatusReq -> Status).
std::string fetchStatus(const std::string &Sock) {
  Client C;
  C.connect(Sock);
  C.send(FrameType::StatusReq, "", 0);
  Frame F = C.recv();
  EXPECT_EQ(F.Type, FrameType::Status);
  return F.payloadText();
}

/// Sum of every `"Key":<n>` occurrence in \p Json — for per-worker slot
/// counters, where the interesting slot is not known in advance.
int64_t sumJsonKey(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  int64_t Sum = 0;
  for (size_t At = Json.find(Needle); At != std::string::npos;
       At = Json.find(Needle, At + Needle.size()))
    Sum += std::strtoll(Json.c_str() + At + Needle.size(), nullptr, 10);
  return Sum;
}

/// Files in \p Dir whose names start with \p Prefix (replicated spool and
/// checkpoint hygiene checks).
int countFilesWithPrefix(const std::string &Dir, const std::string &Prefix) {
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return -1;
  int N = 0;
  while (dirent *E = readdir(D))
    if (std::string(E->d_name).rfind(Prefix, 0) == 0)
      ++N;
  closedir(D);
  return N;
}

constexpr const char *SmallConfig = "size=16k,block=32";

//===----------------------------------------------------------------------===//
// Wire framing and incremental record decoding (units)
//===----------------------------------------------------------------------===//

TEST(ServeWire, FrameRoundTripSurvivesArbitraryChunking) {
  GovernanceReset G;
  std::vector<uint8_t> Bytes;
  encodeFrame(FrameType::Hello, "client=a\n", Bytes);
  std::string Big(100000, 'x');
  encodeFrame(FrameType::Data, Big.data(), Big.size(), Bytes);
  encodeFrame(FrameType::End, "", Bytes);

  FrameDecoder D;
  std::vector<Frame> Got;
  for (size_t I = 0; I < Bytes.size(); I += 7) {
    D.feed(Bytes.data() + I, std::min<size_t>(7, Bytes.size() - I));
    Frame F;
    while (D.next(F) == FrameDecoder::Result::Frame)
      Got.push_back(F);
  }
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].Type, FrameType::Hello);
  EXPECT_EQ(Got[1].payloadText(), Big);
  EXPECT_EQ(Got[2].Type, FrameType::End);
  EXPECT_TRUE(D.atEof().ok());
}

TEST(ServeWire, CorruptFrameIsStickyAndTruncationIsClassified) {
  GovernanceReset G;
  std::vector<uint8_t> Bytes;
  encodeFrame(FrameType::Data, "payload", Bytes);
  Bytes[FrameHeaderBytes] ^= 0x5a; // one payload byte flipped on the wire

  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  Frame F;
  EXPECT_EQ(D.next(F), FrameDecoder::Result::Bad);
  EXPECT_EQ(D.error().code(), StatusCode::Corrupt);
  EXPECT_EQ(D.next(F), FrameDecoder::Result::Bad) << "errors must be sticky";
  EXPECT_EQ(D.atEof().code(), StatusCode::Corrupt);

  FrameDecoder T;
  T.feed(Bytes.data(), FrameHeaderBytes + 2); // ends inside the frame
  EXPECT_EQ(T.next(F), FrameDecoder::Result::NeedMore);
  EXPECT_EQ(T.atEof().code(), StatusCode::Truncated);
}

TEST(ServeWire, RecordDecoderSplitsCorruptFromTruncated) {
  GovernanceReset G;
  Stream S = makeStream(100, 1);

  // A stream cut mid-record is Truncated, not Corrupt.
  IncrementalTraceDecoder Cut;
  Cut.feed(S.Bytes.data(), S.Bytes.size() - 2);
  TraceRecord R;
  while (Cut.next(R))
    ;
  EXPECT_TRUE(Cut.error().ok());
  EXPECT_TRUE(Cut.midRecord());
  EXPECT_EQ(Cut.atEof().code(), StatusCode::Truncated);

  // A bad opcode mid-stream is Corrupt, sticky, and position-attributed.
  std::vector<uint8_t> Bad = S.Bytes;
  Bad.push_back(0xff);
  IncrementalTraceDecoder D;
  D.feed(Bad.data(), Bad.size());
  while (D.next(R))
    ;
  EXPECT_EQ(D.error().code(), StatusCode::Corrupt);
  EXPECT_EQ(D.recordCount(), S.Records);
  EXPECT_EQ(D.atEof().code(), StatusCode::Corrupt);
}

TEST(ServeWire, ReplicationCodecsRoundTrip) {
  GovernanceReset G;
  // ReplData through a real FrameDecoder: frame type, sequence, kind,
  // header text, and body bytes all survive.
  std::string Header = "conn=7\nclient=a\nconfig=size=16k,block=32\n";
  std::vector<uint8_t> Body = {0x00, 0xff, 0x10, 0x20};
  std::vector<uint8_t> Bytes;
  encodeReplFrame(42, ReplKind::Chunk, Header, Body.data(), Body.size(),
                  Bytes);
  encodeHeartbeatFrame({3, 99}, Bytes);
  encodeReplAckFrame({98, 2}, Bytes);

  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Result::Frame);
  ASSERT_EQ(F.Type, FrameType::ReplData);
  ReplMsg M;
  ASSERT_TRUE(decodeReplPayload(F.Payload.data(), F.Payload.size(), M).ok());
  EXPECT_EQ(M.Seq, 42u);
  EXPECT_EQ(M.Kind, ReplKind::Chunk);
  EXPECT_EQ(M.Header, Header);
  ASSERT_EQ(F.Payload.size() - M.BodyOffset, Body.size());
  EXPECT_EQ(std::vector<uint8_t>(F.Payload.begin() +
                                     static_cast<long>(M.BodyOffset),
                                 F.Payload.end()),
            Body);
  EXPECT_EQ(kvGet(parseKvLines(M.Header), "conn"), "7");

  ASSERT_EQ(D.next(F), FrameDecoder::Result::Frame);
  ASSERT_EQ(F.Type, FrameType::Heartbeat);
  HeartbeatMsg H;
  ASSERT_TRUE(
      decodeHeartbeatPayload(F.Payload.data(), F.Payload.size(), H).ok());
  EXPECT_EQ(H.Epoch, 3u);
  EXPECT_EQ(H.Seq, 99u);

  ASSERT_EQ(D.next(F), FrameDecoder::Result::Frame);
  ASSERT_EQ(F.Type, FrameType::ReplAck);
  ReplAckMsg A;
  ASSERT_TRUE(
      decodeReplAckPayload(F.Payload.data(), F.Payload.size(), A).ok());
  EXPECT_EQ(A.Seq, 98u);
  EXPECT_EQ(A.Epoch, 2u);
  EXPECT_TRUE(D.atEof().ok());
}

TEST(ServeWire, ReplicationCodecsRejectMalformedPayloads) {
  GovernanceReset G;
  std::vector<uint8_t> Bytes;
  encodeReplFrame(1, ReplKind::Hello, "k=v\n", nullptr, 0, Bytes);
  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Result::Frame);

  ReplMsg M;
  // Shorter than the fixed prefix.
  EXPECT_EQ(decodeReplPayload(F.Payload.data(), ReplMsgHeaderBytes - 1, M)
                .code(),
            StatusCode::Corrupt);
  // Unknown kind (0 and one past the last defined one).
  std::vector<uint8_t> Bad = F.Payload;
  Bad[8] = 0;
  EXPECT_EQ(decodeReplPayload(Bad.data(), Bad.size(), M).code(),
            StatusCode::Corrupt);
  Bad[8] = MaxReplKind + 1;
  EXPECT_EQ(decodeReplPayload(Bad.data(), Bad.size(), M).code(),
            StatusCode::Corrupt);
  // Header length pointing past the payload end.
  Bad = F.Payload;
  Bad[9] = 0xff;
  Bad[10] = 0xff;
  EXPECT_EQ(decodeReplPayload(Bad.data(), Bad.size(), M).code(),
            StatusCode::Corrupt);

  // Heartbeat and ReplAck payloads must be exactly 16 bytes.
  HeartbeatMsg H;
  ReplAckMsg A;
  uint8_t Fixed[17] = {};
  EXPECT_EQ(decodeHeartbeatPayload(Fixed, 15, H).code(), StatusCode::Corrupt);
  EXPECT_EQ(decodeHeartbeatPayload(Fixed, 17, H).code(), StatusCode::Corrupt);
  EXPECT_TRUE(decodeHeartbeatPayload(Fixed, 16, H).ok());
  EXPECT_EQ(decodeReplAckPayload(Fixed, 15, A).code(), StatusCode::Corrupt);
  EXPECT_EQ(decodeReplAckPayload(Fixed, 17, A).code(), StatusCode::Corrupt);
  EXPECT_TRUE(decodeReplAckPayload(Fixed, 16, A).ok());
}

//===----------------------------------------------------------------------===//
// SendQueue bounds: exactly-at-limit enqueue, eviction mid-frame
//===----------------------------------------------------------------------===//

TEST(ServeQueue, EnqueueExactlyAtBoundAcceptedOneByteOverRejected) {
  GovernanceReset G;
  SendQueue Q(64);
  std::vector<uint8_t> Exact(64, 0xab);
  ASSERT_TRUE(Q.enqueue(Exact).ok()) << "exactly-at-limit must fit";
  EXPECT_EQ(Q.pendingBytes(), 64u);

  std::vector<uint8_t> One(1, 0xcd);
  Status S = Q.enqueue(One);
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);
  EXPECT_EQ(Q.pendingBytes(), 64u) << "a rejected enqueue must queue nothing";

  // Draining returns the headroom: after the pump the bound is available
  // again in full.
  int Sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_TRUE(setNonBlocking(Sp[0]).ok());
  bool Progress = false;
  ASSERT_TRUE(Q.pump(Sp[0], Progress).ok());
  EXPECT_TRUE(Progress);
  EXPECT_TRUE(Q.empty());
  EXPECT_TRUE(Q.enqueue(Exact).ok());
  close(Sp[0]);
  close(Sp[1]);
}

TEST(ServeQueue, EvictionDecisionDuringPartialFrameWriteKeepsFramesIntact) {
  GovernanceReset G;
  int Sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_TRUE(setNonBlocking(Sp[0]).ok());
  ASSERT_TRUE(setNonBlocking(Sp[1]).ok());
  // A small kernel send buffer so one frame cannot leave in one write.
  int SndBuf = 4096;
  ASSERT_EQ(setsockopt(Sp[0], SOL_SOCKET, SO_SNDBUF, &SndBuf,
                       sizeof(SndBuf)),
            0);

  std::vector<uint8_t> Payload(96 << 10);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 131 + 7);
  std::vector<uint8_t> FrameBytes;
  encodeFrame(FrameType::Data, Payload.data(), Payload.size(), FrameBytes);

  SendQueue Q(128 << 10);
  ASSERT_TRUE(Q.enqueue(FrameBytes).ok());
  bool Progress = false;
  ASSERT_TRUE(Q.pump(Sp[0], Progress).ok());
  EXPECT_TRUE(Progress);
  ASSERT_FALSE(Q.empty()) << "the frame must be mid-write for this test";

  // The eviction decision lands exactly here: with most of a frame still
  // queued, the next frame overflows the bound and is rejected whole —
  // this is the moment the daemon evicts the connection.
  Status S = Q.enqueue(FrameBytes);
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);

  // The partially-written frame is not corrupted by the rejection: drain
  // the reader and keep pumping until the queue empties, then decode.
  FrameDecoder D;
  uint8_t Buf[1 << 16];
  for (int Spin = 0; Spin < 10000 && !Q.empty(); ++Spin) {
    ssize_t N;
    while ((N = read(Sp[1], Buf, sizeof(Buf))) > 0)
      D.feed(Buf, static_cast<size_t>(N));
    ASSERT_TRUE(Q.pump(Sp[0], Progress).ok());
  }
  ASSERT_TRUE(Q.empty());
  ssize_t N;
  while ((N = read(Sp[1], Buf, sizeof(Buf))) > 0)
    D.feed(Buf, static_cast<size_t>(N));
  Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Result::Frame);
  EXPECT_EQ(F.Type, FrameType::Data);
  EXPECT_EQ(F.Payload, Payload);
  ASSERT_EQ(D.next(F), FrameDecoder::Result::NeedMore);
  EXPECT_TRUE(D.atEof().ok());
  close(Sp[0]);
  close(Sp[1]);
}

TEST(ServeQueue, ShortWriteFaultSiteIsPerQueue) {
  GovernanceReset G;
  // One occurrence of ack-short-write: only the queue constructed with
  // that site may consume it.
  ASSERT_TRUE(faultInjector().armFromSpec("ack-short-write:1").ok());
  int Sp[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_TRUE(setNonBlocking(Sp[0]).ok());

  std::vector<uint8_t> FrameBytes;
  encodeFrame(FrameType::Data, "payload", FrameBytes);

  SendQueue Reply; // default reply-short-write site: unaffected
  ASSERT_TRUE(Reply.enqueue(FrameBytes).ok());
  bool Progress = false;
  ASSERT_TRUE(Reply.pump(Sp[0], Progress).ok());
  EXPECT_TRUE(Reply.empty()) << "the armed site is ack-short-write";

  SendQueue Ack(256u << 10, FaultSite::AckShortWrite);
  ASSERT_TRUE(Ack.enqueue(FrameBytes).ok());
  ASSERT_TRUE(Ack.pump(Sp[0], Progress).ok());
  EXPECT_TRUE(Progress);
  EXPECT_EQ(Ack.pendingBytes(), FrameBytes.size() - 1)
      << "the injected short write delivers exactly one byte";
  ASSERT_TRUE(Ack.pump(Sp[0], Progress).ok());
  EXPECT_TRUE(Ack.empty());
  close(Sp[0]);
  close(Sp[1]);
}

//===----------------------------------------------------------------------===//
// runServeJob: checkpoints, drain, resume (no daemon, no forks)
//===----------------------------------------------------------------------===//

TEST(ServeJob, DrainedRunResumesBitIdentical) {
  GovernanceReset G;
  std::string Dir = freshDir("job");
  Stream S = makeStream(12000, 7);
  std::string Baseline = directReply(S, "c", SmallConfig, Dir);

  // A pre-tripped cancel token drains at the first cooperative poll with
  // a final checkpoint — deterministically, at an exact record boundary.
  ServeJob J;
  J.Client = "c";
  J.ConfigSpec = SmallConfig;
  J.SpoolPath = Dir + "/drain.spool";
  J.CheckpointPath = Dir + "/drain.ckpt";
  J.DeclaredRecords = S.Records;
  J.DeclaredCrc = S.Crc;
  J.CheckpointEveryRecords = 1000;
  writeSpool(J.SpoolPath, S.Bytes);

  ASSERT_TRUE(cancelToken().request(CancelReason::Signal));
  Expected<ServeResult> Part = runServeJob(J);
  ASSERT_TRUE(Part) << Part.status().message();
  EXPECT_EQ(Part->Outcome, UnitOutcome::PartialDeadline);
  EXPECT_LT(Part->Records, S.Records);
  EXPECT_GT(Part->Records, 0u);

  cancelToken().reset();
  J.Resume = true;
  Expected<ServeResult> Done = runServeJob(J);
  ASSERT_TRUE(Done) << Done.status().message();
  EXPECT_EQ(Done->Outcome, UnitOutcome::Ok);
  EXPECT_TRUE(Done->Resumed);
  EXPECT_EQ(Done->Records, S.Records);
  EXPECT_EQ(countersOf(Done->ReplyJson), countersOf(Baseline));
}

TEST(ServeJob, DeclaredCountAndCrcAreVerified) {
  GovernanceReset G;
  std::string Dir = freshDir("verify");
  Stream S = makeStream(500, 3);
  ServeJob J;
  J.Client = "c";
  J.ConfigSpec = SmallConfig;
  J.SpoolPath = Dir + "/v.spool";
  writeSpool(J.SpoolPath, S.Bytes);

  J.DeclaredRecords = S.Records + 1;
  J.DeclaredCrc = S.Crc;
  Expected<ServeResult> R1 = runServeJob(J);
  ASSERT_FALSE(R1);
  EXPECT_EQ(R1.status().code(), StatusCode::Corrupt);

  J.DeclaredRecords = S.Records;
  J.DeclaredCrc = S.Crc ^ 1;
  Expected<ServeResult> R2 = runServeJob(J);
  ASSERT_FALSE(R2);
  EXPECT_EQ(R2.status().code(), StatusCode::Corrupt);
}

//===----------------------------------------------------------------------===//
// WorkerPool: crash containment without the daemon
//===----------------------------------------------------------------------===//

TEST(ServePool, DrainCutsResumablePartial) {
  GovernanceReset G;
  std::string Dir = freshDir("pool");
  // Big enough that the job is provably still running when its first
  // checkpoint line reaches the parent (ckpt 1k of 200k records).
  Stream S = makeStream(200000, 11);
  std::string Baseline = directReply(S, "c", SmallConfig, Dir);

  ServeJob J;
  J.Client = "c";
  J.ConfigSpec = SmallConfig;
  J.SpoolPath = Dir + "/p.spool";
  J.CheckpointPath = Dir + "/p.ckpt";
  J.DeclaredRecords = S.Records;
  J.DeclaredCrc = S.Crc;
  J.CheckpointEveryRecords = 1000;
  writeSpool(J.SpoolPath, S.Bytes);

  WorkerPool Pool;
  ASSERT_TRUE(Pool.start({.Workers = 1}).ok());
  Pool.submit(J);

  std::vector<WorkerPool::Event> Events;
  bool Drained = false;
  ServeResult Partial;
  bool GotResult = false;
  for (int I = 0; I < 4000 && !GotResult; ++I) {
    Events.clear();
    Pool.pump(Events);
    for (const WorkerPool::Event &E : Events) {
      if (E.EventKind == WorkerPool::Event::Kind::Checkpoint && !Drained) {
        Pool.drain(); // SIGTERM mid-job: the worker must drain, not die
        Drained = true;
      }
      if (E.EventKind == WorkerPool::Event::Kind::Result) {
        ASSERT_TRUE(E.Error.ok()) << E.Error.message();
        Partial = E.Result;
        GotResult = true;
      }
    }
    usleep(5000);
  }
  Pool.stop();
  ASSERT_TRUE(GotResult) << "pool never reported the drained job";
  EXPECT_EQ(Pool.workerDeaths(), 0u) << "drain must not look like a crash";
  ASSERT_NE(Partial.Outcome, UnitOutcome::Ok);
  EXPECT_LT(Partial.Records, S.Records);

  // The partial's checkpoint resumes to the bit-identical final state.
  GovernanceReset::resetAll();
  J.Resume = true;
  Expected<ServeResult> Done = runServeJob(J);
  ASSERT_TRUE(Done) << Done.status().message();
  EXPECT_TRUE(Done->Resumed);
  EXPECT_EQ(countersOf(Done->ReplyJson), countersOf(Baseline));
}

//===----------------------------------------------------------------------===//
// The daemon, over real sockets
//===----------------------------------------------------------------------===//

TEST(ServeDaemon, RoundTripMatchesDirectRunExactly) {
  GovernanceReset G;
  Daemon D = startDaemon();
  Stream S = makeStream(5000, 42);

  Outcome O = runSession(D.Sock, S, "alice", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_EQ(O.Json, directReply(S, "alice", SmallConfig, D.Dir));
  EXPECT_EQ(jsonFindString(O.Json, "outcome"), "ok");
  EXPECT_EQ(jsonFindInt(O.Json, "records"), static_cast<int64_t>(S.Records));

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1);
  EXPECT_EQ(jsonFindInt(M, "corrupt_streams"), 0);

  D.term();
  EXPECT_EQ(D.waitExit(), ServeExitDrained);
  EXPECT_NE(D.manifest().find("\"drained\":true"), std::string::npos);
}

TEST(ServeDaemon, MalformedStreamIsIsolatedFromOtherClients) {
  GovernanceReset G;
  Daemon D = startDaemon();

  // Client A: valid frames carrying garbage record bytes.
  Client A;
  A.connect(D.Sock);
  A.hello("mallory", SmallConfig);
  std::vector<uint8_t> Junk(64, 0xff);
  A.data(Junk);
  Frame FA = A.recv();
  ASSERT_EQ(FA.Type, FrameType::Error);
  std::string Code, Msg;
  splitErrorPayload(FA.payloadText(), Code, Msg);
  EXPECT_EQ(Code, "CORRUPT") << Msg;

  // Client B: unaffected, bit-identical result.
  Stream S = makeStream(3000, 9);
  Outcome O = runSession(D.Sock, S, "bob", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_EQ(countersOf(O.Json), countersOf(directReply(S, "bob", SmallConfig, D.Dir)));

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindInt(M, "corrupt_streams"), 1);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1);
}

TEST(ServeDaemon, TruncatedAndOverpromisedStreamsAreRejected) {
  GovernanceReset G;
  Daemon D = startDaemon();
  Stream S = makeStream(1000, 5);

  // Cut mid-record, then End: the damage is TRUNCATED, not CORRUPT.
  {
    Client C;
    C.connect(D.Sock);
    C.hello("cut", SmallConfig);
    std::vector<uint8_t> Partial(S.Bytes.begin(), S.Bytes.end() - 2);
    C.data(Partial);
    C.end(S.Records, S.Crc);
    Frame F = C.recv();
    ASSERT_EQ(F.Type, FrameType::Error);
    std::string Code, Msg;
    splitErrorPayload(F.payloadText(), Code, Msg);
    EXPECT_EQ(Code, "TRUNCATED") << Msg;
  }

  // Whole stream, lying End frame: CORRUPT with the mismatch spelled out.
  {
    Client C;
    C.connect(D.Sock);
    C.hello("liar", SmallConfig);
    C.data(S.Bytes);
    C.end(S.Records + 5, S.Crc);
    Frame F = C.recv();
    ASSERT_EQ(F.Type, FrameType::Error);
    std::string Code, Msg;
    splitErrorPayload(F.payloadText(), Code, Msg);
    EXPECT_EQ(Code, "CORRUPT");
    EXPECT_NE(Msg.find("declares"), std::string::npos) << Msg;
  }

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindInt(M, "truncated_streams"), 1);
  EXPECT_EQ(jsonFindInt(M, "corrupt_streams"), 1);
}

TEST(ServeDaemon, AdmissionControlDeniesBeyondMaxClients) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) { O.MaxClients = 1; });

  Client Held;
  Held.connect(D.Sock);
  Held.hello("held", SmallConfig);
  // Make sure the daemon has actually accepted the held connection
  // before racing the second one against it.
  for (int I = 0; I < 1000; ++I) {
    if (jsonFindInt(D.manifest(), "accepted", 0) >= 1)
      break;
    usleep(5000);
  }

  Client Denied;
  Denied.connect(D.Sock);
  Frame F = Denied.recv();
  ASSERT_EQ(F.Type, FrameType::Error);
  std::string Code, Msg;
  splitErrorPayload(F.payloadText(), Code, Msg);
  EXPECT_EQ(Code, "RESOURCE_EXHAUSTED") << Msg;
  Denied.disconnect();

  // The held client is untouched and completes normally.
  Stream S = makeStream(500, 2);
  Held.data(S.Bytes);
  Held.end(S.Records, S.Crc);
  Frame R = Held.recv();
  EXPECT_EQ(R.Type, FrameType::Reply);

  EXPECT_GE(jsonFindInt(D.manifest(), "denied_clients"), 1);
}

TEST(ServeDaemon, AdmissionControlDeniesOverMemBudget) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) { O.MemBudgetBytes = 1; });

  Client C;
  C.connect(D.Sock);
  C.hello("hog", SmallConfig);
  Frame F = C.recv();
  ASSERT_EQ(F.Type, FrameType::Error);
  std::string Code, Msg;
  splitErrorPayload(F.payloadText(), Code, Msg);
  EXPECT_EQ(Code, "RESOURCE_EXHAUSTED");
  EXPECT_NE(Msg.find("budget"), std::string::npos) << Msg;
  // The manifest file is rewritten at the end of the daemon's loop tick;
  // give it a moment to land on disk.
  int64_t Denied = 0;
  for (int I = 0; I < 1000 && Denied < 1; ++I) {
    Denied = jsonFindInt(D.manifest(), "denied_mem", 0);
    if (Denied < 1)
      usleep(5000);
  }
  EXPECT_GE(Denied, 1);
}

TEST(ServeDaemon, KilledWorkerRetriesFromCheckpointBitIdentical) {
  GovernanceReset G;
  // The worker serving the job is SIGKILLed at the first checkpoint it
  // reports; the retry must resume from that checkpoint and finish with
  // the same counters as an undisturbed run.
  Daemon D = startDaemon([](ServeOptions &O) { O.CheckpointEveryRecords = 500; },
                         "worker-kill:1");
  Stream S = makeStream(8000, 21);

  Outcome O = runSession(D.Sock, S, "victim", SmallConfig, 30000);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_NE(O.Json.find("\"resumed\":true"), std::string::npos) << O.Json;
  EXPECT_EQ(countersOf(O.Json),
            countersOf(directReply(S, "victim", SmallConfig, D.Dir)));

  std::string M = fetchStatus(D.Sock);
  EXPECT_GE(jsonFindInt(M, "worker_deaths"), 1);
  EXPECT_GE(jsonFindInt(M, "retries"), 1);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1);
  EXPECT_EQ(jsonFindInt(M, "workers_alive"), 2) << "dead worker respawned";
}

TEST(ServeDaemon, RetriesExhaustedDenyButDaemonSurvives) {
  GovernanceReset G;
  Daemon D = startDaemon(
      [](ServeOptions &O) {
        O.MaxRetries = 0;
        O.CheckpointEveryRecords = 500;
      },
      "worker-kill:1");
  Stream S = makeStream(8000, 22);

  Outcome O = runSession(D.Sock, S, "doomed", SmallConfig, 30000);
  ASSERT_FALSE(O.Ok);
  EXPECT_EQ(O.Code, "WORKER_FAILURE") << O.Message;

  // The fault fired once; the daemon and its pool still serve others.
  Stream S2 = makeStream(3000, 23);
  Outcome O2 = runSession(D.Sock, S2, "next", SmallConfig, 30000);
  ASSERT_TRUE(O2.Ok) << O2.Code << ": " << O2.Message;
  EXPECT_EQ(countersOf(O2.Json),
            countersOf(directReply(S2, "next", SmallConfig, D.Dir)));

  std::string M = fetchStatus(D.Sock);
  EXPECT_GE(jsonFindInt(M, "denials"), 1);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1);
}

TEST(ServeDaemon, InjectedFrameCorruptionIsCaughtAndContained) {
  GovernanceReset G;
  // The daemon-side decoder reports the 2nd frame it completes (the first
  // client's first Data frame, after its Hello) as failing its CRC.
  Daemon D = startDaemon({}, "frame-corrupt:2");
  Stream S = makeStream(2000, 31);

  // One Data frame only: the daemon closes the connection on the injected
  // failure, so sending the whole stream would race an EPIPE.
  {
    Client U;
    U.connect(D.Sock);
    U.hello("unlucky", SmallConfig);
    std::vector<uint8_t> OneChunk(S.Bytes.begin(), S.Bytes.begin() + 1024);
    U.data(OneChunk);
    Frame F = U.recv();
    ASSERT_EQ(F.Type, FrameType::Error);
    std::string Code, Msg;
    splitErrorPayload(F.payloadText(), Code, Msg);
    EXPECT_EQ(Code, "CORRUPT") << Msg;
  }

  Outcome O2 = runSession(D.Sock, S, "lucky", SmallConfig);
  ASSERT_TRUE(O2.Ok) << O2.Code << ": " << O2.Message;
  EXPECT_EQ(countersOf(O2.Json),
            countersOf(directReply(S, "lucky", SmallConfig, D.Dir)));
  EXPECT_GE(jsonFindInt(fetchStatus(D.Sock), "corrupt_streams"), 1);
}

TEST(ServeDaemon, AcceptFailureIsLoggedAndServiceContinues) {
  GovernanceReset G;
  Daemon D = startDaemon({}, "accept-fail:1");
  Stream S = makeStream(1000, 4);

  // The first accept attempt fails; the connection stays in the listen
  // backlog and is accepted on the next loop tick.
  Outcome O = runSession(D.Sock, S, "patient", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_GE(jsonFindInt(fetchStatus(D.Sock), "accept_failures"), 1);
}

TEST(ServeDaemon, ReplyShortWriteStillDeliversWholeReply) {
  GovernanceReset G;
  Daemon D = startDaemon({}, "reply-short-write:1");
  Stream S = makeStream(1500, 6);

  Outcome O = runSession(D.Sock, S, "slowpoke", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_EQ(O.Json, directReply(S, "slowpoke", SmallConfig, D.Dir));
}

TEST(ServeDaemon, IdleClientIsEvictedOnDeadline) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) { O.IdleTimeoutMs = 200; });

  Client C;
  C.connect(D.Sock);
  C.hello("sleeper", SmallConfig);
  Frame F = C.recv(15000); // sends nothing further; daemon must evict
  ASSERT_EQ(F.Type, FrameType::Error);
  std::string Code, Msg;
  splitErrorPayload(F.payloadText(), Code, Msg);
  EXPECT_EQ(Code, "DEADLINE") << Msg;
  int64_t Evicted = 0;
  for (int I = 0; I < 1000 && Evicted < 1; ++I) {
    Evicted = jsonFindInt(D.manifest(), "evicted", 0);
    if (Evicted < 1)
      usleep(5000);
  }
  EXPECT_GE(Evicted, 1);
}

TEST(ServeDaemon, ActivityWithinIdleDeadlineResetsTheClock) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) { O.IdleTimeoutMs = 400; });
  Stream S = makeStream(3000, 66);

  // Dribble the stream: every gap stays under the deadline, but the whole
  // session takes several deadlines' worth of wall clock. Each Data frame
  // must reset the eviction clock, or the daemon would cut this client.
  Client C;
  C.connect(D.Sock);
  C.hello("dribble", SmallConfig);
  size_t Chunk = (S.Bytes.size() + 9) / 10;
  for (size_t At = 0; At < S.Bytes.size(); At += Chunk) {
    size_t N = std::min(Chunk, S.Bytes.size() - At);
    C.send(FrameType::Data, S.Bytes.data() + At, N);
    usleep(120 * 1000);
  }
  C.end(S.Records, S.Crc);
  Frame F = C.recv(30000);
  ASSERT_EQ(F.Type, FrameType::Reply) << F.payloadText();
  EXPECT_EQ(jsonFindInt(fetchStatus(D.Sock), "evicted"), 0);
}

TEST(ServeDaemon, StatusReportsPerWorkerAndReplicationCounters) {
  GovernanceReset G;
  // A worker-kill pins the retry to one specific slot: the status endpoint
  // must attribute it there, not just in the pool-wide totals.
  Daemon D = startDaemon(
      [](ServeOptions &O) { O.CheckpointEveryRecords = 500; },
      "worker-kill:1");
  Stream S = makeStream(8000, 71);
  Outcome O = runSession(D.Sock, S, "w", SmallConfig, 30000);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindString(M, "role"), "solo");
  ASSERT_NE(M.find("\"workers\":[{"), std::string::npos) << M;
  EXPECT_GT(jsonFindInt(M, "pid"), 0) << M;
  EXPECT_EQ(sumJsonKey(M, "slot_deaths"), jsonFindInt(M, "worker_deaths"));
  EXPECT_EQ(sumJsonKey(M, "slot_retries"), jsonFindInt(M, "retries"));
  EXPECT_GE(sumJsonKey(M, "slot_retries"), 1);
  EXPECT_EQ(sumJsonKey(M, "slot_completed"), jsonFindInt(M, "completed"));

  // The replication block exists (and is quiescent) even for a solo
  // daemon, so dashboards need not special-case roles.
  ASSERT_NE(M.find("\"repl\":{"), std::string::npos) << M;
  EXPECT_NE(M.find("\"standby_attached\":false"), std::string::npos);
  EXPECT_EQ(jsonFindInt(M, "lag"), 0);
  EXPECT_EQ(jsonFindInt(M, "seq_sent"), 0);
  EXPECT_GE(jsonFindInt(M, "replay_hits"), 0);
}

TEST(ServeDaemon, IdenticalStreamIsDedupSeededBitIdentical) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) { O.CheckpointEveryRecords = 300; });
  Stream S = makeStream(4000, 77);

  Outcome First = runSession(D.Sock, S, "first", SmallConfig, 30000);
  ASSERT_TRUE(First.Ok) << First.Code << ": " << First.Message;
  EXPECT_NE(First.Json.find("\"seeded\":false"), std::string::npos);

  // Same bytes, same config: the second job must seed from the first
  // job's registered checkpoint — and still produce identical counters.
  Outcome Second = runSession(D.Sock, S, "second", SmallConfig, 30000);
  ASSERT_TRUE(Second.Ok) << Second.Code << ": " << Second.Message;
  EXPECT_NE(Second.Json.find("\"seeded\":true"), std::string::npos)
      << Second.Json;
  EXPECT_EQ(countersOf(First.Json), countersOf(Second.Json));

  std::string M = fetchStatus(D.Sock);
  EXPECT_GE(jsonFindInt(M, "dedup_hits"), 1);
  EXPECT_EQ(jsonFindInt(M, "completed"), 2);
}

TEST(ServeDaemon, SigtermDrainsToResumablePartials) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) {
    O.CheckpointEveryRecords = 1000;
    O.DrainGraceMs = 30000;
  });
  // A deliberately long job (many configs x many records) so it is still
  // in flight when the drain signal lands.
  Stream S = makeStream(300000, 55);
  std::string Config = "size=16k,block=32;size=64k,block=64;size=256k,block=128";

  Client C;
  C.connect(D.Sock);
  C.hello("drained", Config);
  C.data(S.Bytes);
  C.end(S.Records, S.Crc);

  // Wait until the job is provably dispatched, then pull the plug.
  for (int I = 0; I < 2000; ++I) {
    std::string M = D.manifest();
    if (jsonFindInt(M, "jobs_running", 0) >= 1 ||
        jsonFindInt(M, "completed", 0) >= 1)
      break;
    usleep(2000);
  }
  D.term();

  Frame F = C.recv(60000);
  EXPECT_EQ(D.waitExit(), ServeExitDrained);
  std::string M = D.manifest();
  EXPECT_NE(M.find("\"drained\":true"), std::string::npos);

  if (F.Type == FrameType::Reply &&
      jsonFindString(F.payloadText(), "outcome") != "ok") {
    // The common case: the job drained to a partial. Its manifest entry
    // must name a spool + checkpoint from which a resume finishes with
    // counters bit-identical to an uninterrupted run.
    size_t At = M.find("\"partials\":[{");
    ASSERT_NE(At, std::string::npos) << M;
    std::string Entry = M.substr(At);
    ServeJob J;
    J.Client = "drained";
    J.ConfigSpec = Config;
    J.SpoolPath = jsonFindString(Entry, "spool");
    J.CheckpointPath = jsonFindString(Entry, "checkpoint");
    J.DeclaredRecords = S.Records;
    J.DeclaredCrc = S.Crc;
    J.Resume = true;
    ASSERT_EQ(access(J.SpoolPath.c_str(), F_OK), 0) << J.SpoolPath;
    ASSERT_EQ(access(J.CheckpointPath.c_str(), F_OK), 0) << J.CheckpointPath;
    Expected<ServeResult> Done = runServeJob(J);
    ASSERT_TRUE(Done) << Done.status().message();
    EXPECT_TRUE(Done->Resumed);
    EXPECT_EQ(countersOf(Done->ReplyJson),
              countersOf(directReply(S, "drained", Config, D.Dir)));
  } else {
    // The job slipped in under the signal: it must then be a complete,
    // correct reply.
    ASSERT_EQ(F.Type, FrameType::Reply);
    EXPECT_EQ(jsonFindInt(F.payloadText(), "records"),
              static_cast<int64_t>(S.Records));
  }
}

// A delivered partial hands its spool and checkpoint to the manifest's
// partials[] for a later resume, so closing the connection it was
// delivered on must not delete them.
TEST(ServeDaemon, DeliveredPartialKeepsItsSpoolAndCheckpoint) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) {
    O.CheckpointEveryRecords = 1000;
    O.DrainGraceMs = 30000;
  });
  Stream S = makeStream(300000, 56);
  std::string Config = "size=16k,block=32;size=64k,block=64;size=256k,block=128";

  Client C;
  C.connect(D.Sock);
  C.hello("kept", Config);
  C.data(S.Bytes);
  C.end(S.Records, S.Crc);

  // Drain once the job has cut its first checkpoint: it is then provably
  // mid-run, with nearly all of its records still ahead of it.
  for (int I = 0; I < 5000 && countFilesWithPrefix(D.Dir, "job_") < 1; ++I)
    usleep(1000);
  ASSERT_GE(countFilesWithPrefix(D.Dir, "job_"), 1) << "job never started";
  D.term();

  Frame F = C.recv(60000);
  ASSERT_EQ(F.Type, FrameType::Reply);
  ASSERT_NE(jsonFindString(F.payloadText(), "outcome"), "ok")
      << "the drain must land mid-job";
  C.disconnect();
  EXPECT_EQ(D.waitExit(), ServeExitDrained);

  std::string M = D.manifest();
  size_t At = M.find("\"partials\":[{");
  ASSERT_NE(At, std::string::npos) << M;
  int Entries = 0;
  for (At = M.find("\"spool\":", At); At != std::string::npos;
       At = M.find("\"spool\":", At + 1)) {
    std::string Entry = M.substr(At);
    std::string Spool = jsonFindString(Entry, "spool");
    std::string Ckpt = jsonFindString(Entry, "checkpoint");
    EXPECT_EQ(access(Spool.c_str(), F_OK), 0) << Spool;
    EXPECT_EQ(access(Ckpt.c_str(), F_OK), 0) << Ckpt;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1) << M;
}

// A job still queued when SIGTERM lands never cut a checkpoint, so its
// partials[] entry names its spool and no checkpoint (resume from record
// 0) — never a checkpoint file that was never written. The daemon runs
// under --audit, which fails it (exit 1) on any entry naming a missing
// file.
TEST(ServeDaemon, QueuedJobAtSigtermIsListedWithoutACheckpoint) {
  GovernanceReset G;
  Daemon D = startDaemon([](ServeOptions &O) {
    O.Workers = 1;
    O.CheckpointEveryRecords = 1000;
    O.DrainGraceMs = 30000;
    O.Audit = true;
  });
  std::string Config = "size=16k,block=32;size=64k,block=64;size=256k,block=128";
  Stream S = makeStream(300000, 57);

  Client Running;
  Running.connect(D.Sock);
  Running.hello("running", Config);
  Running.data(S.Bytes);
  Running.end(S.Records, S.Crc);
  for (int I = 0; I < 5000 && jsonFindInt(fetchStatus(D.Sock), "jobs_running",
                                          0) < 1;
       ++I)
    usleep(1000);

  Client Queued;
  Queued.connect(D.Sock);
  Queued.hello("queued", Config);
  Queued.data(S.Bytes);
  Queued.end(S.Records, S.Crc);
  std::string M;
  for (int I = 0; I < 5000; ++I) {
    M = fetchStatus(D.Sock);
    if (jsonFindInt(M, "jobs_queued", 0) >= 1)
      break;
    usleep(1000);
  }
  ASSERT_EQ(jsonFindInt(M, "jobs_running", 0), 1) << M;
  ASSERT_EQ(jsonFindInt(M, "jobs_queued", 0), 1) << M;
  D.term();

  Running.recv(60000);
  // The queued job never ran, and its reply says so.
  Frame QF = Queued.recv(60000);
  EXPECT_EQ(QF.Type, FrameType::Reply);
  std::string Reply = QF.payloadText();
  EXPECT_EQ(jsonFindString(Reply, "client"), "queued") << Reply;
  EXPECT_EQ(jsonFindString(Reply, "outcome"), "cancelled") << Reply;
  EXPECT_EQ(jsonFindInt(Reply, "records", -1), 0) << Reply;
  EXPECT_EQ(D.waitExit(), ServeExitDrained);

  M = D.manifest();
  size_t At = M.find("\"partials\":[{");
  ASSERT_NE(At, std::string::npos) << M;
  int Entries = 0;
  for (At = M.find("{\"client\":", At); At != std::string::npos;
       At = M.find("{\"client\":", At + 1)) {
    std::string Entry = M.substr(At);
    std::string Spool = jsonFindString(Entry, "spool");
    std::string Ckpt = jsonFindString(Entry, "checkpoint");
    EXPECT_EQ(access(Spool.c_str(), F_OK), 0) << Spool;
    if (jsonFindString(Entry, "client") == "queued")
      EXPECT_EQ(Ckpt, "") << M;
    else
      EXPECT_EQ(access(Ckpt.c_str(), F_OK), 0) << Ckpt;
    ++Entries;
  }
  EXPECT_EQ(Entries, 2) << M;
}

#ifdef __linux__
/// Every `"pid":<n>` in a status manifest: the worker pids.
std::vector<int> workerPids(const std::string &Status) {
  std::vector<int> Pids;
  const std::string Needle = "\"pid\":";
  for (size_t At = Status.find(Needle); At != std::string::npos;
       At = Status.find(Needle, At + Needle.size()))
    Pids.push_back(std::atoi(Status.c_str() + At + Needle.size()));
  return Pids;
}

/// An empty string when /proc/<Pid>/fd holds exactly stdio and two pipes
/// (the worker's job and result ends); otherwise the listing.
std::string unexpectedFds(int Pid) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/fd";
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return "cannot open " + Dir;
  std::string Listing;
  int Pipes = 0, Other = 0;
  while (dirent *E = readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    int Fd = std::atoi(E->d_name);
    char Target[256] = {};
    ssize_t N = readlink((Dir + "/" + E->d_name).c_str(), Target,
                         sizeof(Target) - 1);
    std::string Link = N > 0 ? std::string(Target, N) : "?";
    Listing += " " + std::string(E->d_name) + "->" + Link;
    if (Fd <= 2)
      continue;
    if (Link.rfind("pipe:", 0) == 0)
      ++Pipes;
    else
      ++Other;
  }
  closedir(D);
  return Pipes == 2 && Other == 0 ? "" : "pid " + std::to_string(Pid) + ":" +
                                             Listing;
}

/// Polls until every worker in the status manifest holds only its own
/// fds (a fresh worker closes the inherited ones right after the fork).
void expectWorkersHoldOnlyTheirOwnFds(const std::string &Sock,
                                      size_t Workers) {
  std::string Bad;
  for (int I = 0; I < 500; ++I) {
    std::vector<int> Pids = workerPids(fetchStatus(Sock));
    ASSERT_EQ(Pids.size(), Workers);
    Bad.clear();
    for (int Pid : Pids)
      Bad += unexpectedFds(Pid);
    if (Bad.empty())
      return;
    usleep(10000);
  }
  ADD_FAILURE() << Bad;
}

TEST(ServeDaemon, WorkersHoldOnlyStdioAndTheirOwnPipes) {
  GovernanceReset G;
  // worker-kill respawns a worker while the victim's client socket is
  // live in the daemon, so the respawned worker is forked holding it.
  Daemon D = startDaemon(
      [](ServeOptions &O) {
        O.Workers = 3;
        O.CheckpointEveryRecords = 500;
      },
      "worker-kill:1");
  expectWorkersHoldOnlyTheirOwnFds(D.Sock, 3);

  Stream S = makeStream(8000, 31);
  Outcome O = runSession(D.Sock, S, "victim", SmallConfig, 30000);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  ASSERT_GE(jsonFindInt(fetchStatus(D.Sock), "worker_deaths"), 1);
  expectWorkersHoldOnlyTheirOwnFds(D.Sock, 3);
}
#endif

TEST(ServeDaemon, StatusEndpointAnswersBeforeHello) {
  GovernanceReset G;
  Daemon D = startDaemon();
  std::string M = fetchStatus(D.Sock);
  EXPECT_GE(jsonFindInt(M, "accepted", -1), 1) << M;
  EXPECT_EQ(jsonFindInt(M, "workers_alive"), 2) << M;
}

TEST(ServeStdin, SingleSessionOverPipesExitsZero) {
  GovernanceReset G;
  std::string Dir = freshDir("stdin");
  int ToChild[2], FromChild[2];
  ASSERT_EQ(pipe(ToChild), 0);
  ASSERT_EQ(pipe(FromChild), 0);
  pid_t P = fork();
  ASSERT_GE(P, 0);
  if (P == 0) {
    GovernanceReset::resetAll();
    dup2(ToChild[0], 0);
    dup2(FromChild[1], 1);
    close(ToChild[0]);
    close(ToChild[1]);
    close(FromChild[0]);
    close(FromChild[1]);
    ServeOptions O;
    O.Stdin = true;
    O.Dir = Dir;
    O.Workers = 1;
    TraceService Service(std::move(O));
    _exit(Service.run());
  }
  close(ToChild[0]);
  close(FromChild[1]);

  Stream S = makeStream(800, 12);
  Client C;
  C.Fd = FromChild[0]; // recv side; sends go to the other pipe
  {
    std::vector<uint8_t> F;
    std::string Hello = std::string("client=pipe\nconfig=") + SmallConfig + "\n";
    encodeFrame(FrameType::Hello, Hello.data(), Hello.size(), F);
    encodeFrame(FrameType::Data, S.Bytes.data(), S.Bytes.size(), F);
    std::vector<uint8_t> End;
    for (int I = 0; I != 8; ++I)
      End.push_back(static_cast<uint8_t>(S.Records >> (8 * I)));
    for (int I = 0; I != 4; ++I)
      End.push_back(static_cast<uint8_t>(S.Crc >> (8 * I)));
    encodeFrame(FrameType::End, End.data(), End.size(), F);
    ASSERT_TRUE(sendAll(ToChild[1], F).ok());
    close(ToChild[1]);
  }
  Frame R = C.recv(30000);
  EXPECT_EQ(R.Type, FrameType::Reply);
  EXPECT_EQ(jsonFindInt(R.payloadText(), "records"),
            static_cast<int64_t>(S.Records));

  int St = 0;
  ASSERT_EQ(waitpid(P, &St, 0), P);
  ASSERT_TRUE(WIFEXITED(St));
  EXPECT_EQ(WEXITSTATUS(St), ServeExitOk);
}

//===----------------------------------------------------------------------===//
// High availability: replication, failover, idempotent replay
//===----------------------------------------------------------------------===//

TEST(ServeHa, StandbyMirrorsStateAcksAndExitsCleanBeforePromotion) {
  GovernanceReset G;
  std::string ReplSock;
  Daemon Primary = startDaemon([&](ServeOptions &O) {
    O.ReplListenPath = O.Dir + "/repl.sock";
    O.HeartbeatMs = 25;
    O.CheckpointEveryRecords = 500;
    ReplSock = O.ReplListenPath;
  });
  Daemon Standby = startStandby(Primary, ReplSock,
                                [](ServeOptions &O) { O.LeaseMs = 30000; });

  ServeClientOptions C;
  C.SocketPath = Primary.Sock;
  C.Client = "mirrored";
  C.ConfigSpec = SmallConfig;
  C.JobId = "mirror-1";
  Stream S = makeStream(6000, 55);
  Expected<ServeClientResult> R =
      runServeClient(C, S.Bytes, S.Records, S.Crc);
  ASSERT_TRUE(R) << R.status().message();
  EXPECT_EQ(R->Attempts, 1u) << "no failover in this test";

  // Primary view: a standby is attached and has acked every sequence.
  std::string M;
  int64_t Lag = -1, Sent = 0;
  for (int I = 0; I < 2000 && !(Lag == 0 && Sent > 0); ++I) {
    M = fetchStatus(Primary.Sock);
    Lag = jsonFindInt(M, "lag", -1);
    Sent = jsonFindInt(M, "seq_sent", 0);
    if (!(Lag == 0 && Sent > 0))
      usleep(5000);
  }
  EXPECT_EQ(Lag, 0) << M;
  EXPECT_GT(Sent, 0) << M;
  EXPECT_NE(M.find("\"standby_attached\":true"), std::string::npos) << M;

  // Standby view (its on-disk manifest — a standby serves no sockets):
  // synced, sequences seen, and the finished idempotent job's reply
  // cached for post-promotion replays.
  std::string SM;
  int64_t Entries = 0;
  for (int I = 0; I < 2000 && Entries < 1; ++I) {
    SM = Standby.manifest();
    Entries = jsonFindInt(SM, "replay_entries", 0);
    if (Entries < 1)
      usleep(5000);
  }
  EXPECT_GE(Entries, 1) << SM;
  EXPECT_EQ(jsonFindString(SM, "role"), "standby") << SM;
  EXPECT_NE(SM.find("\"synced\":true"), std::string::npos) << SM;
  EXPECT_GT(jsonFindInt(SM, "seq_seen", 0), 0) << SM;
  // The completed stream's replicated spool was reclaimed on its Result.
  EXPECT_EQ(countFilesWithPrefix(Standby.Dir, "rspool_"), 0);

  // SIGTERM before promotion: a standby holds no client state — it wipes
  // its replicas and exits clean (exit 0, not the drain code).
  Standby.term();
  EXPECT_EQ(Standby.waitExit(), ServeExitOk);
  EXPECT_EQ(countFilesWithPrefix(Standby.Dir, "rspool_"), 0);
  EXPECT_EQ(countFilesWithPrefix(Standby.Dir, "rjob_"), 0);

  // The primary shrugs off the departure and keeps serving.
  int64_t Drops = 0;
  for (int I = 0; I < 2000 && Drops < 1; ++I) {
    Drops = jsonFindInt(fetchStatus(Primary.Sock), "standby_drops", 0);
    if (Drops < 1)
      usleep(5000);
  }
  EXPECT_GE(Drops, 1);
  Stream S2 = makeStream(1500, 56);
  Outcome O2 = runSession(Primary.Sock, S2, "later", SmallConfig);
  ASSERT_TRUE(O2.Ok) << O2.Code << ": " << O2.Message;
  Primary.term();
  EXPECT_EQ(Primary.waitExit(), ServeExitDrained);
}

/// The acceptance sweep: SIGKILL the primary at the k-th checkpoint cut
/// for every early k, with cross-checking and conservation audits armed.
/// The standby must promote, finish the in-flight stream from replicated
/// state, and hand the reconnecting client counters bit-identical to an
/// uninterrupted single-shot run.
void failoverSweepAtEveryCut(unsigned Threads) {
  Stream S = makeStream(9000, 91);
  std::string BaseDir = freshDir("hab");
  std::string Baseline = directReply(S, "ha", SmallConfig, BaseDir);
  for (unsigned K = 1; K <= 3; ++K) {
    SCOPED_TRACE("kill at checkpoint cut " + std::to_string(K));
    std::string ReplSock;
    Daemon Primary = startDaemon(
        [&](ServeOptions &O) {
          O.ReplListenPath = O.Dir + "/repl.sock";
          O.HeartbeatMs = 25;
          O.LeaseMs = 250;
          O.CheckpointEveryRecords = 600;
          O.CrosscheckEvery = 2000;
          O.Audit = true;
          O.Threads = Threads;
          ReplSock = O.ReplListenPath;
        },
        "primary-crash:" + std::to_string(K));
    Daemon Standby = startStandby(Primary, ReplSock, [&](ServeOptions &O) {
      O.CheckpointEveryRecords = 600;
      O.CrosscheckEvery = 2000;
      O.Audit = true;
      O.Threads = Threads;
    });

    ServeClientOptions C;
    C.SocketPath = Primary.Sock;
    C.Client = "ha";
    C.ConfigSpec = SmallConfig;
    C.JobId = "ha-k" + std::to_string(K);
    C.RetrySeed = K + 1;
    Expected<ServeClientResult> R =
        runServeClient(C, S.Bytes, S.Records, S.Crc);
    ASSERT_TRUE(R) << R.status().message();
    EXPECT_GE(R->Attempts, 2u) << "the primary must actually have died";
    EXPECT_EQ(countersOf(R->ReplyJson), countersOf(Baseline));

    EXPECT_EQ(Primary.waitExit(), 128 + SIGKILL);
    std::string M;
    for (int I = 0; I < 1000; ++I) {
      M = Standby.manifest();
      if (M.find("\"promoted\":true") != std::string::npos)
        break;
      usleep(5000);
    }
    EXPECT_EQ(access((Standby.Dir + "/promoted").c_str(), F_OK), 0);
    EXPECT_NE(M.find("\"promoted\":true"), std::string::npos) << M;
    EXPECT_EQ(jsonFindString(M, "role"), "primary") << M;
    EXPECT_GE(jsonFindInt(M, "epoch"), 2) << M;
    Standby.term();
    EXPECT_EQ(Standby.waitExit(), ServeExitDrained);
  }
}

TEST(ServeHa, FailoverAtEveryCheckpointCutBitIdenticalSerial) {
  GovernanceReset G;
  failoverSweepAtEveryCut(0);
}

TEST(ServeHa, FailoverAtEveryCheckpointCutBitIdenticalThreaded) {
  GovernanceReset G;
  failoverSweepAtEveryCut(2);
}

TEST(ServeHa, IdempotentReplayReturnsCachedReplyWithoutResimulating) {
  GovernanceReset G;
  Daemon D = startDaemon();
  Stream S = makeStream(3000, 17);
  ServeClientOptions C;
  C.SocketPath = D.Sock;
  C.Client = "idem";
  C.ConfigSpec = SmallConfig;
  C.JobId = "idem-1";
  Expected<ServeClientResult> R1 =
      runServeClient(C, S.Bytes, S.Records, S.Crc);
  ASSERT_TRUE(R1) << R1.status().message();
  Expected<ServeClientResult> R2 =
      runServeClient(C, S.Bytes, S.Records, S.Crc);
  ASSERT_TRUE(R2) << R2.status().message();
  EXPECT_EQ(R1->ReplyJson, R2->ReplyJson)
      << "a replayed job must return the cached reply byte-identical";

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1) << "the replay re-simulated";
  EXPECT_GE(jsonFindInt(M, "replay_hits"), 1);
  EXPECT_GE(jsonFindInt(M, "replay_entries"), 1);

  // A different id is a different job: it simulates (seeded by dedup) and
  // lands on the same counters.
  C.JobId = "idem-2";
  Expected<ServeClientResult> R3 =
      runServeClient(C, S.Bytes, S.Records, S.Crc);
  ASSERT_TRUE(R3) << R3.status().message();
  EXPECT_EQ(countersOf(R3->ReplyJson), countersOf(R1->ReplyJson));
  EXPECT_EQ(jsonFindInt(fetchStatus(D.Sock), "completed"), 2);
}

TEST(ServeHa, ConcurrentIdempotentRetryAttachesAsWaiter) {
  GovernanceReset G;
  Daemon D = startDaemon(
      [](ServeOptions &O) { O.CheckpointEveryRecords = 2000; });
  Stream S = makeStream(200000, 27);
  ServeClientOptions C;
  C.SocketPath = D.Sock;
  C.Client = "waiter";
  C.ConfigSpec = SmallConfig;
  C.JobId = "shared-job";

  std::string ReplyA;
  Status FirstErr;
  std::thread First([&] {
    Expected<ServeClientResult> R =
        runServeClient(C, S.Bytes, S.Records, S.Crc);
    if (R)
      ReplyA = R->ReplyJson;
    else
      FirstErr = R.status();
  });
  // Wait until the first submission is provably dispatched (or already
  // done — then the second lands on the replay cache, which must satisfy
  // the same assertions).
  for (int I = 0; I < 2000; ++I) {
    std::string M = D.manifest();
    if (jsonFindInt(M, "jobs_running", 0) >= 1 ||
        jsonFindInt(M, "completed", 0) >= 1)
      break;
    usleep(2000);
  }
  Expected<ServeClientResult> RB =
      runServeClient(C, S.Bytes, S.Records, S.Crc);
  First.join();
  ASSERT_TRUE(FirstErr.ok()) << FirstErr.message();
  ASSERT_TRUE(RB) << RB.status().message();
  EXPECT_EQ(ReplyA, RB->ReplyJson)
      << "both claimants of one job id must see identical bytes";

  std::string M = fetchStatus(D.Sock);
  EXPECT_EQ(jsonFindInt(M, "completed"), 1)
      << "one simulation must serve both requests";
  EXPECT_GE(jsonFindInt(M, "replay_hits"), 1);
}

TEST(ServeHa, PromoteRaceIsFencedExactlyOnePrimarySurvives) {
  GovernanceReset G;
  std::string ReplSock;
  Daemon Primary = startDaemon([&](ServeOptions &O) {
    O.ReplListenPath = O.Dir + "/repl.sock";
    O.HeartbeatMs = 25;
    O.LeaseMs = 250;
    ReplSock = O.ReplListenPath;
  });
  // The standby's first lease check lies: it promotes while the primary
  // is alive and well. The socket-identity fence must resolve the split
  // brain with exactly one survivor — and it must be the new epoch.
  Daemon Standby = startStandby(Primary, ReplSock, {}, "promote-race:1");
  EXPECT_EQ(Primary.waitExit(), ServeExitSuperseded);
  for (int I = 0;
       I < 2000 && access((Standby.Dir + "/promoted").c_str(), F_OK) != 0;
       ++I)
    usleep(5000);
  ASSERT_EQ(access((Standby.Dir + "/promoted").c_str(), F_OK), 0);

  // The promoted standby owns the socket path now and serves correctly.
  Stream S = makeStream(2000, 33);
  Outcome O = runSession(Primary.Sock, S, "after", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  EXPECT_EQ(countersOf(O.Json),
            countersOf(directReply(S, "after", SmallConfig, Standby.Dir)));
  std::string M = fetchStatus(Primary.Sock);
  EXPECT_EQ(jsonFindString(M, "role"), "primary") << M;
  EXPECT_GE(jsonFindInt(M, "epoch"), 2) << M;
  Standby.term();
  EXPECT_EQ(Standby.waitExit(), ServeExitDrained);
}

TEST(ServeHa, HeartbeatLossPromotesStandbyAndFencesThePrimary) {
  GovernanceReset G;
  std::string ReplSock;
  // Every heartbeat from the first on is suppressed (sticky): replication
  // still flows, but the lease starves and the standby must take over.
  Daemon Primary = startDaemon(
      [&](ServeOptions &O) {
        O.ReplListenPath = O.Dir + "/repl.sock";
        O.HeartbeatMs = 25;
        O.LeaseMs = 250;
        ReplSock = O.ReplListenPath;
      },
      "heartbeat-loss:1");
  Daemon Standby = startStandby(Primary, ReplSock);
  for (int I = 0;
       I < 2000 && access((Standby.Dir + "/promoted").c_str(), F_OK) != 0;
       ++I)
    usleep(5000);
  ASSERT_EQ(access((Standby.Dir + "/promoted").c_str(), F_OK), 0);
  EXPECT_EQ(Primary.waitExit(), ServeExitSuperseded);

  Stream S = makeStream(1500, 34);
  Outcome O = runSession(Primary.Sock, S, "post", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;
  Standby.term();
  EXPECT_EQ(Standby.waitExit(), ServeExitDrained);
}

TEST(ServeHa, ReplicationGapForcesFullResyncNotDivergence) {
  GovernanceReset G;
  std::string ReplSock;
  // Drop the 2nd replicated frame (the first client's Hello, after the
  // attach-time SyncDone): the standby must detect the sequence gap and
  // heal by reattach + full resync rather than applying divergent state.
  Daemon Primary = startDaemon(
      [&](ServeOptions &O) {
        O.ReplListenPath = O.Dir + "/repl.sock";
        O.HeartbeatMs = 25;
        ReplSock = O.ReplListenPath;
      },
      "repl-drop:2");
  // A long standby lease: the gap heals by resync, never promotion.
  Daemon Standby = startStandby(Primary, ReplSock,
                                [](ServeOptions &O) { O.LeaseMs = 30000; });
  Stream S = makeStream(2000, 44);
  Outcome O = runSession(Primary.Sock, S, "gap", SmallConfig);
  ASSERT_TRUE(O.Ok) << O.Code << ": " << O.Message;

  std::string M;
  int64_t Resyncs = 0;
  for (int I = 0; I < 2000 && Resyncs < 2; ++I) {
    M = fetchStatus(Primary.Sock);
    Resyncs = jsonFindInt(M, "resyncs", 0);
    if (Resyncs < 2)
      usleep(5000);
  }
  EXPECT_GE(Resyncs, 2) << M; // the initial attach plus the healing one
  int64_t Lag = -1;
  for (int I = 0; I < 2000 && Lag != 0; ++I) {
    M = fetchStatus(Primary.Sock);
    Lag = jsonFindInt(M, "lag", -1);
    if (Lag != 0)
      usleep(5000);
  }
  EXPECT_EQ(Lag, 0) << M;
  EXPECT_NE(M.find("\"standby_attached\":true"), std::string::npos) << M;

  Standby.term();
  EXPECT_EQ(Standby.waitExit(), ServeExitOk);
  Primary.term();
  EXPECT_EQ(Primary.waitExit(), ServeExitDrained);
}

} // namespace
