//===- TraceService.cpp - Fault-tolerant streaming trace service -----------===//

#include "gcache/core/TraceService.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/memsys/CacheConfig.h"
#include "gcache/support/Budget.h"
#include "gcache/support/Crc32.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Random.h"
#include "gcache/support/SignalGuard.h"
#include "gcache/support/Socket.h"
#include "gcache/support/Vfs.h"
#include "gcache/support/Wire.h"
#include "gcache/trace/TraceFile.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gcache;

namespace {

int64_t nowMs() {
  using namespace std::chrono;
  return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
      .count();
}

uint64_t readU64Le(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | P[I];
  return V;
}

uint32_t readU32Le(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

/// CRC-32 of the first \p Bytes bytes of \p Path (dedup prefix matching).
bool crcOfFilePrefix(const std::string &Path, uint64_t Bytes, uint32_t &Out) {
  Expected<std::unique_ptr<VfsReadFile>> F = vfs().openRead(Path);
  if (!F)
    return false;
  uint32_t Crc = 0;
  uint8_t Buf[1 << 16];
  uint64_t Left = Bytes;
  while (Left) {
    size_t Want = static_cast<size_t>(std::min<uint64_t>(Left, sizeof(Buf)));
    Expected<size_t> N = (*F)->read(Buf, Want);
    if (!N || *N == 0)
      break;
    Crc = crc32(Buf, *N, Crc);
    Left -= *N;
  }
  if (Left)
    return false;
  Out = Crc;
  return true;
}

/// "worker-failure" -> "WORKER_FAILURE": wire Error codes are the status
/// code names, uppercased (the RESOURCE_EXHAUSTED convention).
std::string wireCode(StatusCode Code) {
  std::string S = statusCodeName(Code);
  for (char &C : S)
    C = C == '-' ? '_' : static_cast<char>(std::toupper(C));
  return S;
}

/// Plain-text atomic file write (the manifest is advisory JSON, not a
/// snapshot, but it must never be read half-written). Routed through the
/// Vfs so fault injection and the crash sweep cover it.
bool writeTextAtomic(const std::string &Path, const std::string &Text) {
  return vfs().writeFileAtomic(Path, Text.data(), Text.size()).ok();
}

/// Creates/truncates an empty marker file (ready/promoted signals).
void touchFile(const std::string &Path) {
  if (Expected<std::unique_ptr<VfsFile>> F = vfs().openWrite(Path))
    (void)(*F)->close();
}

} // namespace

struct TraceService::Impl {
  // One client connection's full lifecycle.
  struct Connection {
    enum class State : uint8_t { AwaitHello, Streaming, Dispatched, Closing };

    uint64_t Id = 0;
    int InFd = -1;  ///< Read side (socket, or fd 0 in stdin mode).
    int OutFd = -1; ///< Write side (same socket, or fd 1 in stdin mode).
    bool OwnsFds = true;
    State St = State::AwaitHello;
    FrameDecoder Frames;
    IncrementalTraceDecoder Records; ///< Incremental opcode validation.
    SendQueue Out;
    std::string Client = "?";
    std::string ConfigSpec;
    std::string IdKey; ///< Idempotent job id from Hello (`job=`), or "".
    std::unique_ptr<VfsFile> Spool;
    std::string SpoolPath;
    uint64_t SpoolBytes = 0;
    uint32_t SpoolCrc = 0;
    uint64_t Estimate = 0; ///< Committed admission bytes.
    int64_t LastActivityMs = 0;
    uint64_t JobId = 0;

    explicit Connection(size_t QueueBytes) : Out(QueueBytes) {}
  };

  // A dispatched job's server-side bookkeeping (survives its connection).
  struct JobInfo {
    uint64_t JobId = 0;
    uint64_t ConnId = 0;
    std::string Client;
    std::string ConfigSpec;
    std::string IdKey; ///< Idempotent job id, "" when the client sent none.
    std::string SpoolPath;
    std::string CheckpointPath;
    uint64_t SpoolBytes = 0;
    uint64_t Estimate = 0;
    uint64_t DeclRecords = 0;
    uint32_t DeclCrc = 0;
    bool RegisteredDedup = false;
    /// Connections that retried the same IdKey while this job was running;
    /// they get the reply alongside the original connection.
    std::vector<uint64_t> Waiters;
    // Latest checkpoint cut (replication + promotion bookkeeping).
    bool HasCkpt = false;
    uint64_t LastCkptRecords = 0, LastCkptBytes = 0;
    uint32_t LastCkptCrc = 0;
  };

  // Dedup registry: a checkpoint snapshot covering a validated prefix.
  struct DedupEntry {
    std::string ConfigSpec;
    uint64_t Bytes = 0;
    uint32_t Crc = 0;
    std::string SnapshotPath;
  };

  // A drained partial, listed in the manifest for resumption.
  struct Partial {
    std::string Client, ConfigSpec, SpoolPath, CheckpointPath;
    uint64_t Records = 0;
  };

  /// Which side of the replication pair this daemon is right now. A Solo
  /// daemon (no --repl-listen / --standby-of) skips every HA code path.
  enum class HaRole : uint8_t { Solo, Primary, Standby };

  /// A cached reply for an idempotent job id: a client that retries after
  /// a failover gets this byte-identical instead of a second simulation.
  struct ReplayEntry {
    std::string IdKey;
    std::string ReplyJson;
  };

  /// The standby's replica of one primary-side stream/job, keyed by the
  /// primary's connection id. Promotion turns EndSeen entries back into
  /// real jobs.
  struct ReplStream {
    std::string Client, ConfigSpec, IdKey;
    std::unique_ptr<VfsFile> Spool;
    std::string SpoolPath;
    uint64_t Bytes = 0;
    bool EndSeen = false;
    uint64_t JobId = 0;
    uint64_t DeclRecords = 0;
    uint32_t DeclCrc = 0;
    // Latest fully-received checkpoint snapshot.
    bool HasCkpt = false;
    std::string CkptPath;
    // In-flight checkpoint transfer (piece-wise, validated by file CRC).
    std::unique_ptr<VfsFile> CkptTmp;
    std::string CkptTmpPath;
    uint32_t CkptTmpCrc = 0;
  };

  /// Replicated checkpoint/chunk transfers ride in pieces of this size so
  /// a ReplData frame never approaches the wire's payload bound.
  static constexpr size_t ReplChunkBytes = 256u << 10;

  ServeOptions Opts;
  int ListenFd = -1;
  WorkerPool Pool;
  std::vector<std::unique_ptr<Connection>> Conns;
  std::vector<JobInfo> Jobs;
  std::vector<DedupEntry> Dedup;
  std::vector<Partial> Partials;
  uint64_t NextConnId = 1;
  uint64_t CommittedBytes = 0;
  bool Draining = false;
  int64_t DrainDeadlineMs = 0;
  bool StdinSessionDone = false;
  std::string Manifest = "{}";
  bool ManifestDirty = true;
  bool AuditFailed = false; ///< auditPartials() found a broken entry.

  // Manifest counters.
  uint64_t Accepted = 0, DeniedClients = 0, DeniedMem = 0;
  uint64_t CorruptStreams = 0, TruncatedStreams = 0, Evicted = 0;
  uint64_t Completed = 0, Orphaned = 0, DedupHits = 0, AcceptFailures = 0;

  //===--------------------------------------------------------------------===//
  // High-availability state
  //===--------------------------------------------------------------------===//

  HaRole Role = HaRole::Solo;
  uint64_t Epoch = 1; ///< Primary generation; bumps on every promotion.
  bool Promoted = false; ///< This daemon started as a standby and took over.
  bool Superseded = false; ///< The socket-identity fence tripped.
  bool PromoteFailed = false; ///< Promotion could not bind/start: fatal.

  // Socket-identity fence: the (device, inode) of the client socket path
  // recorded at bind time. A promoting standby rebinds the path (new
  // inode); the old primary notices on its next heartbeat tick.
  bool FenceArmed = false;
  dev_t SockDev = 0;
  ino_t SockIno = 0;

  // Primary side: the standby link.
  int ReplListenFd = -1;
  int ReplFd = -1; ///< Primary: attached standby. Standby: link to primary.
  FrameDecoder ReplDec;
  SendQueue ReplOut;        ///< Primary -> standby (re-created per attach).
  bool StandbyAttached = false;
  uint64_t ReplSeqSent = 0, ReplSeqAcked = 0;
  uint64_t Resyncs = 0, StandbyDrops = 0;
  int64_t NextBeatMs = 0;
  bool HeartbeatsSuppressed = false; ///< Sticky heartbeat-loss fault fired.

  // Standby side: lease, reconnection, replicated state.
  SendQueue AckOut{256u << 10, FaultSite::AckShortWrite};
  int64_t LastPrimaryMs = 0;
  int64_t NextConnectMs = 0;
  uint64_t PrimaryEpoch = 0;
  uint64_t ReplSeqSeen = 0;
  bool SyncedOnce = false; ///< Never promote before one full resync landed.
  bool ReadyTouched = false;
  Rng ReconnectJitter{0x9e3779b97f4a7c15ull};
  std::map<uint64_t, ReplStream> RStreams;

  // Replay registry (bounded FIFO; replicated to the standby).
  std::deque<ReplayEntry> Replay;
  uint64_t ReplayHits = 0;

  explicit Impl(ServeOptions O) : Opts(std::move(O)) {}

  //===--------------------------------------------------------------------===//
  // Small helpers
  //===--------------------------------------------------------------------===//

  size_t activeConns() const {
    size_t N = 0;
    for (const auto &C : Conns)
      N += C->St != Connection::State::Closing;
    return N;
  }

  std::string spoolPath(uint64_t ConnId) const {
    return Opts.Dir + "/spool_" + std::to_string(ConnId) + ".bin";
  }
  std::string checkpointPath(uint64_t ConnId) const {
    return Opts.Dir + "/job_" + std::to_string(ConnId) + ".ckpt";
  }
  std::string manifestPath() const {
    return Opts.Dir + "/serve_manifest.json";
  }
  // Standby-side replicas live under distinct names so a promoted standby
  // sharing --dir with the dead primary never collides with its files.
  std::string rspoolPath(uint64_t ConnId) const {
    return Opts.Dir + "/rspool_" + std::to_string(ConnId) + ".bin";
  }
  std::string rckptPath(uint64_t ConnId) const {
    return Opts.Dir + "/rjob_" + std::to_string(ConnId) + ".ckpt";
  }

  const ReplayEntry *findReplay(const std::string &IdKey) const {
    for (const ReplayEntry &R : Replay)
      if (R.IdKey == IdKey)
        return &R;
    return nullptr;
  }

  void replayPush(const std::string &IdKey, const std::string &ReplyJson) {
    if (IdKey.empty() || !Opts.ReplayCap)
      return;
    for (ReplayEntry &R : Replay)
      if (R.IdKey == IdKey) {
        R.ReplyJson = ReplyJson;
        return;
      }
    Replay.push_back({IdKey, ReplyJson});
    while (Replay.size() > Opts.ReplayCap)
      Replay.pop_front();
  }

  JobInfo *findJobByIdKey(const std::string &IdKey) {
    if (IdKey.empty())
      return nullptr;
    for (JobInfo &J : Jobs)
      if (J.IdKey == IdKey)
        return &J;
    return nullptr;
  }

  void enqueueFrame(Connection &C, FrameType Type, const std::string &Payload) {
    std::vector<uint8_t> Bytes;
    encodeFrame(Type, Payload, Bytes);
    if (!C.Out.enqueue(Bytes).ok()) {
      // The send queue bound is the backpressure limit: a client that let
      // this much build up is evicted, not buffered further.
      ++Evicted;
      ManifestDirty = true;
      beginClose(C, /*Flush=*/false);
    }
  }

  void enqueueError(Connection &C, const std::string &Code,
                    const std::string &Message) {
    std::vector<uint8_t> Bytes;
    encodeErrorFrame(Code, Message, Bytes);
    (void)C.Out.enqueue(Bytes); // Best effort; the connection is closing.
  }

  /// Starts closing: optionally flush the queue first, then destroy.
  void beginClose(Connection &C, bool Flush) {
    if (C.St == Connection::State::Closing && Flush)
      return;
    releaseSpool(C, /*Unlink=*/C.St != Connection::State::Dispatched);
    if (C.St != Connection::State::Dispatched && C.Estimate) {
      CommittedBytes -= C.Estimate;
      C.Estimate = 0;
    }
    C.St = Connection::State::Closing;
    if (!Flush)
      C.Out = SendQueue(1); // Drop whatever was queued.
  }

  void releaseSpool(Connection &C, bool Unlink) {
    if (C.Spool) {
      (void)C.Spool->close();
      C.Spool.reset();
    }
    if (Unlink && !C.SpoolPath.empty() &&
        C.St != Connection::State::Dispatched) {
      // The stream dies with its connection: the standby drops its replica
      // too (a Remove for a conn the standby never saw is ignored there).
      replShip(ReplKind::Remove, "conn=" + std::to_string(C.Id) + "\n",
               nullptr, 0);
      (void)vfs().unlink(C.SpoolPath);
      C.SpoolPath.clear();
    }
  }

  JobInfo *findJob(uint64_t JobId) {
    for (JobInfo &J : Jobs)
      if (J.JobId == JobId)
        return &J;
    return nullptr;
  }

  Connection *findConn(uint64_t ConnId) {
    for (auto &C : Conns)
      if (C->Id == ConnId)
        return C.get();
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Replication: primary side
  //===--------------------------------------------------------------------===//

  bool replActive() const { return ReplFd >= 0 && StandbyAttached; }

  void dropStandby(const char *Why) {
    if (ReplFd >= 0) {
      close(ReplFd);
      ReplFd = -1;
    }
    if (StandbyAttached)
      ++StandbyDrops;
    StandbyAttached = false;
    ReplDec = FrameDecoder();
    ReplOut = SendQueue(1);
    ManifestDirty = true;
    std::fprintf(stderr, "gcache_serve: standby link dropped (%s)\n", Why);
  }

  /// Ships one replication message to the attached standby; a no-op on a
  /// solo daemon or while no standby is attached. Never blocks: a queue
  /// overflow drops the standby (it reattaches and resyncs from scratch).
  void replShip(ReplKind Kind, const std::string &Header, const void *Body,
                size_t BodyLen) {
    if (!replActive())
      return;
    ++ReplSeqSent;
    // repl-drop fault: this frame silently never leaves the primary. The
    // standby sees the sequence gap and forces a full resync.
    if (faultInjector().shouldFire(FaultSite::ReplDrop))
      return;
    std::vector<uint8_t> Frame;
    encodeReplFrame(ReplSeqSent, Kind, Header, Body, BodyLen, Frame);
    if (!ReplOut.enqueue(Frame).ok())
      dropStandby("replication queue overflow");
  }

  /// replShip for bodies of arbitrary size: split into ReplChunkBytes
  /// pieces so no single frame approaches the wire payload bound.
  void replShipBytes(ReplKind Kind, const std::string &Header,
                     const uint8_t *Data, size_t Len) {
    if (!replActive())
      return;
    size_t Off = 0;
    do {
      size_t N = std::min(Len - Off, ReplChunkBytes);
      replShip(Kind, Header, Data + Off, N);
      Off += N;
    } while (Off < Len && replActive());
  }

  /// Ships a whole file piece-wise. With \p Offsets, each piece carries
  /// `off=`, and the final piece `eof=1`, `filecrc=` (whole-file CRC-32)
  /// plus \p EofExtra — the checkpoint transfer protocol. Without, the
  /// pieces are plain appends (spool resync).
  bool replShipFile(ReplKind Kind, const std::string &BaseHeader,
                    const std::string &Path, const std::string &EofExtra,
                    bool Offsets) {
    Expected<std::unique_ptr<VfsReadFile>> F = vfs().openRead(Path);
    if (!F)
      return false;
    uint64_t Off = 0;
    uint32_t FileCrc = 0;
    std::vector<uint8_t> Buf(ReplChunkBytes);
    for (;;) {
      Expected<size_t> Got = (*F)->read(Buf.data(), Buf.size());
      if (!Got)
        return false;
      size_t N = *Got;
      bool Eof = N < Buf.size();
      FileCrc = crc32(Buf.data(), N, FileCrc);
      std::string H = BaseHeader;
      if (Offsets) {
        H += "off=" + std::to_string(Off) + "\n";
        if (Eof)
          H += "eof=1\nfilecrc=" + std::to_string(FileCrc) + "\n" + EofExtra;
      }
      replShip(Kind, H, Buf.data(), N);
      Off += N;
      if (Eof)
        break;
    }
    return true;
  }

  static std::string streamHelloHeader(uint64_t ConnId,
                                       const std::string &Client,
                                       const std::string &Config,
                                       const std::string &IdKey) {
    std::string H = "conn=" + std::to_string(ConnId) + "\nclient=" + Client +
                    "\nconfig=" + Config + "\n";
    if (!IdKey.empty())
      H += "idkey=" + IdKey + "\n";
    return H;
  }

  /// Ships the latest checkpoint snapshot of \p J. The snapshot file is
  /// written atomically (tmp + rename) by the worker, so reading it here
  /// can never observe a torn cut — at worst a *newer* complete one, which
  /// is why the standby trusts the snapshot's own serve-pos coordinates at
  /// promotion, not the ones on this frame.
  void replShipCheckpoint(const JobInfo &J) {
    if (!replActive())
      return;
    std::string Base = "conn=" + std::to_string(J.ConnId) +
                       "\njob=" + std::to_string(J.JobId) + "\n";
    std::string Extra = "records=" + std::to_string(J.LastCkptRecords) +
                        "\nbytes=" + std::to_string(J.LastCkptBytes) +
                        "\ncrc=" + std::to_string(J.LastCkptCrc) + "\n";
    (void)replShipFile(ReplKind::Ckpt, Base, J.CheckpointPath, Extra,
                       /*Offsets=*/true);
  }

  /// A standby (re)attached: replay everything it needs to mirror the
  /// primary — streaming connections' partial spools, dispatched jobs'
  /// spools + checkpoints, and the replay registry — then mark the session
  /// consistent with SyncDone. Sequence numbers restart at 1 per attach.
  void resyncStandby() {
    ReplSeqSent = 0;
    ReplSeqAcked = 0;
    StandbyAttached = true;
    ++Resyncs;
    ManifestDirty = true;
    for (auto &C : Conns) {
      if (C->St != Connection::State::Streaming || C->SpoolPath.empty())
        continue;
      replShip(ReplKind::Hello,
               streamHelloHeader(C->Id, C->Client, C->ConfigSpec, C->IdKey),
               nullptr, 0);
      if (C->Spool)
        (void)C->Spool->flush();
      std::string ChunkHdr = "conn=" + std::to_string(C->Id) + "\n";
      (void)replShipFile(ReplKind::Chunk, ChunkHdr, C->SpoolPath, "",
                         /*Offsets=*/false);
    }
    for (JobInfo &J : Jobs) {
      replShip(ReplKind::Hello,
               streamHelloHeader(J.ConnId, J.Client, J.ConfigSpec, J.IdKey),
               nullptr, 0);
      std::string ChunkHdr = "conn=" + std::to_string(J.ConnId) + "\n";
      (void)replShipFile(ReplKind::Chunk, ChunkHdr, J.SpoolPath, "",
                         /*Offsets=*/false);
      replShip(ReplKind::End,
               "conn=" + std::to_string(J.ConnId) +
                   "\njob=" + std::to_string(J.JobId) +
                   "\nrecords=" + std::to_string(J.DeclRecords) +
                   "\ncrc=" + std::to_string(J.DeclCrc) + "\n",
               nullptr, 0);
      if (J.HasCkpt)
        replShipCheckpoint(J);
    }
    for (const ReplayEntry &R : Replay)
      replShip(ReplKind::Result, "conn=0\nidkey=" + R.IdKey + "\n",
               R.ReplyJson.data(), R.ReplyJson.size());
    replShip(ReplKind::SyncDone, "epoch=" + std::to_string(Epoch) + "\n",
             nullptr, 0);
    NextBeatMs = 0; // Heartbeat immediately so the standby's lease arms.
  }

  void acceptStandby() {
    for (;;) {
      int Fd = accept4(ReplListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0)
        return;
      if (ReplFd >= 0) {
        // One standby at a time; a second connector is turned away.
        close(Fd);
        continue;
      }
      ReplFd = Fd;
      ReplDec = FrameDecoder();
      ReplOut = SendQueue(Opts.ReplQueueBytes);
      StandbyAttached = false; // Until its Hello arrives.
    }
  }

  /// Primary-side read path on the standby link: the standby's Hello
  /// (trigger a resync) and its cumulative acks.
  void serviceRepl() {
    uint8_t Buf[1 << 16];
    for (;;) {
      ssize_t N = read(ReplFd, Buf, sizeof(Buf));
      if (N > 0) {
        ReplDec.feed(Buf, static_cast<size_t>(N));
        Frame F;
        for (;;) {
          FrameDecoder::Result R = ReplDec.next(F);
          if (R == FrameDecoder::Result::NeedMore)
            break;
          if (R == FrameDecoder::Result::Bad) {
            dropStandby(ReplDec.error().message().c_str());
            return;
          }
          if (F.Type == FrameType::Hello) {
            auto Kv = parseKvLines(F.payloadText());
            if (kvGet(Kv, "role") != "standby") {
              dropStandby("unexpected hello on the replication socket");
              return;
            }
            uint64_t StandbyEpoch =
                std::strtoull(kvGet(Kv, "epoch", "0").c_str(), nullptr, 10);
            if (StandbyEpoch > Epoch) {
              // The connector promoted past us at some point: we are stale.
              Superseded = true;
              return;
            }
            resyncStandby();
          } else if (F.Type == FrameType::ReplAck) {
            ReplAckMsg A;
            if (!decodeReplAckPayload(F.Payload.data(), F.Payload.size(), A)
                     .ok()) {
              dropStandby("malformed replication ack");
              return;
            }
            if (A.Epoch > Epoch) {
              Superseded = true;
              return;
            }
            ReplSeqAcked = std::max(ReplSeqAcked, A.Seq);
          } else {
            dropStandby("unexpected frame type on the replication socket");
            return;
          }
        }
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (N < 0 && errno == EINTR)
        continue;
      dropStandby("standby closed the link");
      return;
    }
  }

  /// Blocking best-effort drain of the replication queue, used only by the
  /// primary-crash fault: the checkpoint cut must be on the standby's
  /// socket before the primary SIGKILLs itself, or the test would be
  /// measuring packet loss instead of failover.
  void flushReplQueue() {
    int64_t Deadline = nowMs() + 2000;
    while (ReplFd >= 0 && !ReplOut.empty() && nowMs() < Deadline) {
      bool Progress = false;
      if (!ReplOut.pump(ReplFd, Progress).ok())
        return;
      if (!Progress) {
        pollfd Pfd{ReplFd, POLLOUT, 0};
        (void)poll(&Pfd, 1, 50);
      }
    }
  }

  void recordSockIdentity() {
    struct stat St;
    FenceArmed = !Opts.SocketPath.empty() &&
                 stat(Opts.SocketPath.c_str(), &St) == 0;
    if (FenceArmed) {
      SockDev = St.st_dev;
      SockIno = St.st_ino;
    }
  }

  /// Split-brain fence: if the client socket path no longer names the
  /// inode this daemon bound, another daemon (a promoted standby) took the
  /// path over — this primary must retire, not keep simulating.
  bool checkFenced() {
    if (!FenceArmed || Role != HaRole::Primary)
      return false;
    struct stat St;
    if (stat(Opts.SocketPath.c_str(), &St) != 0 || St.st_dev != SockDev ||
        St.st_ino != SockIno) {
      Superseded = true;
      return true;
    }
    return false;
  }

  /// Primary housekeeping, once per --heartbeat-ms: fence check, then a
  /// Heartbeat frame renewing the standby's lease.
  void primaryTick(int64_t Now) {
    if (Role != HaRole::Primary || Now < NextBeatMs)
      return;
    NextBeatMs = Now + static_cast<int64_t>(Opts.HeartbeatMs);
    if (checkFenced())
      return;
    if (!replActive() || HeartbeatsSuppressed)
      return;
    // heartbeat-loss fault: from the Nth heartbeat on, this primary goes
    // silent (but keeps running) — the standby's lease must expire and
    // promotion must win the socket from a still-live process.
    if (faultInjector().shouldFire(FaultSite::HeartbeatLoss)) {
      HeartbeatsSuppressed = true;
      return;
    }
    std::vector<uint8_t> Frame;
    encodeHeartbeatFrame({Epoch, ReplSeqSent}, Frame);
    if (!ReplOut.enqueue(Frame).ok())
      dropStandby("replication queue overflow");
  }

  /// The fence tripped: cancel every client with a structured error, stop
  /// the pool, and exit ServeExitSuperseded. Spools and checkpoints stay
  /// on disk — the new primary owns the directory story now.
  int exitSuperseded() {
    std::fprintf(stderr, "gcache_serve: superseded by a newer primary on "
                         "'%s'; retiring (epoch %llu)\n",
                 Opts.SocketPath.c_str(),
                 static_cast<unsigned long long>(Epoch));
    for (auto &C : Conns) {
      if (C->St != Connection::State::Closing)
        enqueueError(*C, "CANCELLED", "superseded by a newer primary");
      bool Progress = false;
      if (C->OutFd >= 0)
        (void)C->Out.pump(C->OutFd, Progress); // Best effort, no waiting.
      destroyConn(*C);
    }
    Conns.clear();
    Pool.stop();
    if (ReplFd >= 0) {
      close(ReplFd);
      ReplFd = -1;
    }
    ManifestDirty = true;
    updateManifest();
    return ServeExitSuperseded;
  }

  //===--------------------------------------------------------------------===//
  // Frame handling
  //===--------------------------------------------------------------------===//

  void onHello(Connection &C, const Frame &F) {
    auto Kv = parseKvLines(F.payloadText());
    C.Client = kvGet(Kv, "client", "anonymous");
    C.ConfigSpec = kvGet(Kv, "config", "size=64k,block=64");
    C.IdKey = kvGet(Kv, "job"); // Idempotent job id ("" = none).
    Expected<std::vector<CacheConfig>> Configs =
        parseCacheConfigSpec(C.ConfigSpec);
    if (!Configs) {
      enqueueError(C, "INVALID_ARGUMENT", Configs.status().message());
      beginClose(C, /*Flush=*/true);
      return;
    }
    uint64_t Est = 0;
    for (const CacheConfig &Cfg : *Configs)
      Est += estimateCacheConfigBytes(Cfg);
    Est += MaxFramePayload; // Frame buffer + decoder allowance.
    if (Opts.MemBudgetBytes &&
        CommittedBytes + Est > Opts.MemBudgetBytes) {
      ++DeniedMem;
      ManifestDirty = true;
      enqueueError(C, "RESOURCE_EXHAUSTED",
                   "admission denied: config needs ~" + std::to_string(Est) +
                       " bytes, " +
                       std::to_string(Opts.MemBudgetBytes - CommittedBytes) +
                       " of " + std::to_string(Opts.MemBudgetBytes) +
                       " budget bytes free");
      beginClose(C, /*Flush=*/true);
      return;
    }
    C.Estimate = Est;
    CommittedBytes += Est;
    C.SpoolPath = spoolPath(C.Id);
    Expected<std::unique_ptr<VfsFile>> Sp = vfs().openWrite(C.SpoolPath);
    if (!Sp) {
      enqueueError(C, "IO_ERROR", Sp.status().message());
      beginClose(C, /*Flush=*/true);
      return;
    }
    C.Spool = std::move(*Sp);
    C.St = Connection::State::Streaming;
    replShip(ReplKind::Hello,
             streamHelloHeader(C.Id, C.Client, C.ConfigSpec, C.IdKey),
             nullptr, 0);
  }

  void onData(Connection &C, const Frame &F) {
    // Incremental validation: every record opcode is checked as it
    // arrives, so corruption surfaces at this frame, not at End.
    C.Records.feed(F.Payload.data(), F.Payload.size());
    TraceRecord Rec;
    while (C.Records.next(Rec)) {
    }
    if (!C.Records.error().ok()) {
      ++CorruptStreams;
      ManifestDirty = true;
      enqueueError(C, "CORRUPT", C.Records.error().message());
      beginClose(C, /*Flush=*/true);
      return;
    }
    if (C.SpoolBytes + F.Payload.size() > Opts.MaxSpoolBytes) {
      ++Evicted;
      ManifestDirty = true;
      enqueueError(C, "RESOURCE_EXHAUSTED",
                   "stream exceeds the per-connection spool cap of " +
                       std::to_string(Opts.MaxSpoolBytes) + " bytes");
      beginClose(C, /*Flush=*/true);
      return;
    }
    if (!F.Payload.empty()) {
      if (Status S = C.Spool->write(F.Payload.data(), F.Payload.size());
          !S.ok()) {
        enqueueError(C, "IO_ERROR", S.message());
        beginClose(C, /*Flush=*/true);
        return;
      }
    }
    C.SpoolCrc = crc32(F.Payload.data(), F.Payload.size(), C.SpoolCrc);
    C.SpoolBytes += F.Payload.size();
    replShipBytes(ReplKind::Chunk, "conn=" + std::to_string(C.Id) + "\n",
                  F.Payload.data(), F.Payload.size());
  }

  void onEnd(Connection &C, const Frame &F) {
    if (F.Payload.size() != 12) {
      ++CorruptStreams;
      ManifestDirty = true;
      enqueueError(C, "CORRUPT", "End frame payload must be 12 bytes");
      beginClose(C, /*Flush=*/true);
      return;
    }
    uint64_t DeclRecords = readU64Le(F.Payload.data());
    uint32_t DeclCrc = readU32Le(F.Payload.data() + 8);
    if (C.Records.midRecord()) {
      ++TruncatedStreams;
      ManifestDirty = true;
      enqueueError(C, "TRUNCATED", C.Records.atEof().message());
      beginClose(C, /*Flush=*/true);
      return;
    }
    if (DeclRecords != C.Records.recordCount() || DeclCrc != C.SpoolCrc) {
      ++CorruptStreams;
      ManifestDirty = true;
      enqueueError(C, "CORRUPT",
                   "End frame declares " + std::to_string(DeclRecords) +
                       " records / crc " + std::to_string(DeclCrc) +
                       ", stream holds " +
                       std::to_string(C.Records.recordCount()) +
                       " records / crc " + std::to_string(C.SpoolCrc));
      beginClose(C, /*Flush=*/true);
      return;
    }
    // The spool becomes the dispatched job's authoritative input here, so
    // it must be durable (fsync) before the job can be admitted: a power
    // cut after dispatch must not lose spool bytes the reply will claim
    // were simulated.
    {
      Status S = C.Spool->sync();
      Status S2 = C.Spool->close();
      C.Spool.reset();
      if (!S.ok() || !S2.ok()) {
        enqueueError(C, "IO_ERROR", (!S.ok() ? S : S2).message());
        beginClose(C, /*Flush=*/true);
        return;
      }
    }

    // Idempotent replay: a completed job with this id already produced a
    // reply — hand it back byte-identical instead of simulating again. The
    // check sits at End, not Hello, so a replaying client streams its full
    // (validated) payload first and never races a half-open socket.
    if (!C.IdKey.empty()) {
      if (const ReplayEntry *R = findReplay(C.IdKey)) {
        ++ReplayHits;
        ManifestDirty = true;
        enqueueFrame(C, FrameType::Reply, R->ReplyJson);
        beginClose(C, /*Flush=*/true);
        return;
      }
      // The job is still in flight (the retry raced the simulation):
      // attach this connection as a waiter instead of double-simulating.
      if (JobInfo *J = findJobByIdKey(C.IdKey)) {
        if (J->DeclRecords == DeclRecords && J->DeclCrc == DeclCrc) {
          ++ReplayHits;
          ManifestDirty = true;
          releaseSpool(C, /*Unlink=*/true);
          if (C.Estimate) {
            CommittedBytes -= C.Estimate;
            C.Estimate = 0;
          }
          C.JobId = J->JobId;
          J->Waiters.push_back(C.Id);
          C.St = Connection::State::Dispatched;
          return;
        }
        enqueueError(C, "INVALID_ARGUMENT",
                     "job id '" + C.IdKey +
                         "' is in flight with a different payload");
        beginClose(C, /*Flush=*/true);
        return;
      }
    }

    ServeJob Job;
    Job.Client = C.Client;
    Job.ConfigSpec = C.ConfigSpec;
    Job.SpoolPath = C.SpoolPath;
    Job.CheckpointPath = checkpointPath(C.Id);
    Job.DeclaredRecords = DeclRecords;
    Job.DeclaredCrc = DeclCrc;
    Job.CheckpointEveryRecords = Opts.CheckpointEveryRecords;
    Job.CrosscheckEvery = Opts.CrosscheckEvery;
    Job.Audit = Opts.Audit;
    Job.Threads = Opts.Threads;

    // Dedup: seed from the largest registered checkpoint whose
    // (config, byte-prefix, CRC) matches this stream.
    if (Opts.Dedup) {
      const DedupEntry *Best = nullptr;
      for (const DedupEntry &D : Dedup) {
        if (D.ConfigSpec != C.ConfigSpec || D.Bytes > C.SpoolBytes)
          continue;
        if (Best && D.Bytes <= Best->Bytes)
          continue;
        uint32_t PrefixCrc = 0;
        if (D.Bytes == C.SpoolBytes)
          PrefixCrc = C.SpoolCrc;
        else if (!crcOfFilePrefix(C.SpoolPath, D.Bytes, PrefixCrc))
          continue;
        if (PrefixCrc == D.Crc)
          Best = &D;
      }
      if (Best) {
        Job.SeedSnapshotPath = Best->SnapshotPath;
        ++DedupHits;
        ManifestDirty = true;
      }
    }

    JobInfo Info;
    Info.ConnId = C.Id;
    Info.Client = C.Client;
    Info.ConfigSpec = C.ConfigSpec;
    Info.IdKey = C.IdKey;
    Info.SpoolPath = C.SpoolPath;
    Info.CheckpointPath = Job.CheckpointPath;
    Info.SpoolBytes = C.SpoolBytes;
    Info.Estimate = C.Estimate;
    Info.DeclRecords = DeclRecords;
    Info.DeclCrc = DeclCrc;
    C.Estimate = 0; // Commitment now rides with the job.
    Info.JobId = C.JobId = Pool.submit(std::move(Job));
    replShip(ReplKind::End,
             "conn=" + std::to_string(C.Id) +
                 "\njob=" + std::to_string(Info.JobId) +
                 "\nrecords=" + std::to_string(DeclRecords) +
                 "\ncrc=" + std::to_string(DeclCrc) + "\n",
             nullptr, 0);
    Jobs.push_back(std::move(Info));
    C.St = Connection::State::Dispatched;
  }

  void onFrame(Connection &C, const Frame &F) {
    C.LastActivityMs = nowMs();
    switch (F.Type) {
    case FrameType::StatusReq:
      // Serve a fresh manifest: the accept that admitted this very
      // connection may not have been folded in yet.
      if (ManifestDirty)
        updateManifest();
      enqueueFrame(C, FrameType::Status, Manifest);
      return;
    case FrameType::Hello:
      if (C.St != Connection::State::AwaitHello)
        break;
      onHello(C, F);
      return;
    case FrameType::Data:
      if (C.St != Connection::State::Streaming)
        break;
      onData(C, F);
      return;
    case FrameType::End:
      if (C.St != Connection::State::Streaming)
        break;
      onEnd(C, F);
      return;
    default:
      break;
    }
    enqueueError(C, "PROTOCOL",
                 "unexpected frame type " +
                     std::to_string(static_cast<unsigned>(F.Type)) +
                     " in connection state " +
                     std::to_string(static_cast<unsigned>(C.St)));
    beginClose(C, /*Flush=*/true);
  }

  //===--------------------------------------------------------------------===//
  // Connection I/O
  //===--------------------------------------------------------------------===//

  /// Reads whatever is available; returns false when the connection is
  /// finished (EOF or hard error) and should be torn down.
  bool serviceRead(Connection &C) {
    if (C.St == Connection::State::Closing)
      return true;
    uint8_t Buf[1 << 16];
    for (;;) {
      ssize_t N = read(C.InFd, Buf, sizeof(Buf));
      if (N > 0) {
        C.Frames.feed(Buf, static_cast<size_t>(N));
        Frame F;
        for (;;) {
          FrameDecoder::Result R = C.Frames.next(F);
          if (R == FrameDecoder::Result::NeedMore)
            break;
          if (R == FrameDecoder::Result::Bad) {
            ++CorruptStreams;
            ManifestDirty = true;
            enqueueError(C, "CORRUPT", C.Frames.error().message());
            beginClose(C, /*Flush=*/true);
            return true;
          }
          onFrame(C, F);
          if (C.St == Connection::State::Closing)
            return true;
        }
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return true;
      if (N < 0 && errno == EINTR)
        continue;
      // EOF (or a dead socket). On a split fd pair (stdin mode) input EOF
      // after End is normal — `cat trace | gcache_serve --stdin` closes
      // stdin at file end; the reply still flows out the other fd. On a
      // socket, a dispatched client leaving means the job finishes and the
      // result is counted as orphaned. Anyone else disconnecting
      // mid-conversation is logged as truncated.
      if (C.St == Connection::State::Dispatched) {
        if (C.OutFd != C.InFd) {
          if (C.OwnsFds)
            close(C.InFd);
          C.InFd = -1;
          return true;
        }
        std::fprintf(stderr,
                     "gcache_serve: client '%s' left before its reply\n",
                     C.Client.c_str());
        return false;
      }
      if (C.St != Connection::State::Closing) {
        Status S = C.Frames.atEof();
        if (!S.ok() || C.St == Connection::State::Streaming) {
          ++TruncatedStreams;
          ManifestDirty = true;
          std::fprintf(stderr, "gcache_serve: client '%s': %s\n",
                       C.Client.c_str(),
                       S.ok() ? "stream ended before its End frame"
                              : S.message().c_str());
        }
      }
      return false;
    }
  }

  void destroyConn(Connection &C) {
    bool JobInFlight = C.JobId != 0 && findJob(C.JobId) != nullptr;
    releaseSpool(C, /*Unlink=*/!JobInFlight);
    if (C.Estimate) {
      CommittedBytes -= C.Estimate;
      C.Estimate = 0;
    }
    if (C.OwnsFds) {
      if (C.InFd >= 0)
        close(C.InFd);
      if (C.OutFd >= 0 && C.OutFd != C.InFd)
        close(C.OutFd);
    }
    C.InFd = C.OutFd = -1;
  }

  //===--------------------------------------------------------------------===//
  // Accept path
  //===--------------------------------------------------------------------===//

  void acceptNew() {
    for (;;) {
      // accept-fail fault site: the Nth accept attempt fails as if the
      // kernel had refused; the daemon logs it and keeps serving.
      if (faultInjector().shouldFire(FaultSite::AcceptFail)) {
        ++AcceptFailures;
        ManifestDirty = true;
        std::fprintf(stderr,
                     "gcache_serve: accept failed (injected accept-fail); "
                     "continuing\n");
        return;
      }
      int Fd = accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          return;
        ++AcceptFailures;
        ManifestDirty = true;
        std::fprintf(stderr, "gcache_serve: accept failed: %s; continuing\n",
                     std::strerror(errno));
        return;
      }
      auto C = std::make_unique<Connection>(Opts.SendQueueBytes);
      C->Id = NextConnId++;
      C->InFd = C->OutFd = Fd;
      C->LastActivityMs = nowMs();
      ++Accepted;
      ManifestDirty = true;
      if (activeConns() >= Opts.MaxClients) {
        ++DeniedClients;
        enqueueError(*C, "RESOURCE_EXHAUSTED",
                     "admission denied: " + std::to_string(Opts.MaxClients) +
                         " clients already connected");
        beginClose(*C, /*Flush=*/true);
      }
      Conns.push_back(std::move(C));
    }
  }

  //===--------------------------------------------------------------------===//
  // Pool events
  //===--------------------------------------------------------------------===//

  void onPoolEvent(const WorkerPool::Event &E) {
    JobInfo *J = findJob(E.JobId);
    if (!J)
      return;
    switch (E.EventKind) {
    case WorkerPool::Event::Kind::Checkpoint: {
      // Register the job's first checkpoint as a dedup seed: an atomic
      // copy of the checkpoint at this cut, so the seed survives the
      // checkpoint file's later overwrites. (A copy, not a hard link, so
      // every byte stays inside the Vfs for fault injection and the crash
      // sweep.)
      if (Opts.Dedup && !J->RegisteredDedup) {
        std::string Reg = Opts.Dir + "/dedup_" + std::to_string(E.JobId) +
                          "_" + std::to_string(E.Bytes) + ".ckpt";
        Expected<std::vector<uint8_t>> Seed = vfs().readFile(J->CheckpointPath);
        if (Seed &&
            vfs().writeFileAtomic(Reg, Seed->data(), Seed->size()).ok()) {
          Dedup.push_back({J->ConfigSpec, E.Bytes, E.Crc, Reg});
          J->RegisteredDedup = true;
        }
      }
      J->HasCkpt = true;
      J->LastCkptRecords = E.Records;
      J->LastCkptBytes = E.Bytes;
      J->LastCkptCrc = E.Crc;
      replShipCheckpoint(*J);
      // primary-crash fault: die hard at exactly this checkpoint boundary,
      // but only after the replicated cut is on the standby's socket —
      // kernel socket buffers survive the sender's SIGKILL.
      if (faultInjector().shouldFire(FaultSite::PrimaryCrash)) {
        flushReplQueue();
        raise(SIGKILL);
      }
      return;
    }
    case WorkerPool::Event::Kind::Retrying:
      ManifestDirty = true;
      return;
    case WorkerPool::Event::Kind::Denied:
    case WorkerPool::Event::Kind::Result:
      break;
    }

    bool Partial = E.Error.ok() && E.EventKind == WorkerPool::Event::Kind::Result &&
                   E.Result.Outcome != UnitOutcome::Ok;
    bool OkResult =
        E.Error.ok() && E.EventKind == WorkerPool::Event::Kind::Result &&
        E.Result.Outcome == UnitOutcome::Ok;

    if (OkResult) {
      ++Completed;
      if (!J->IdKey.empty()) {
        replayPush(J->IdKey, E.Result.ReplyJson);
        replShip(ReplKind::Result,
                 "conn=" + std::to_string(J->ConnId) + "\nidkey=" + J->IdKey +
                     "\n",
                 E.Result.ReplyJson.data(), E.Result.ReplyJson.size());
      } else {
        replShip(ReplKind::Remove, "conn=" + std::to_string(J->ConnId) + "\n",
                 nullptr, 0);
      }
    } else if (Partial) {
      // A job cancelled in the queue or in a retry backoff never cut a
      // checkpoint: its resume starts from record 0 (empty checkpoint).
      Partials.push_back({J->Client, J->ConfigSpec, J->SpoolPath,
                          J->HasCkpt ? J->CheckpointPath : "",
                          E.Result.Records});
      // No Remove: the replicated spool + checkpoint stay useful — a
      // promoting standby finishes what this partial left behind.
    } else {
      // Denied or structured failure: deterministic, not worth a retry on
      // the standby either.
      replShip(ReplKind::Remove, "conn=" + std::to_string(J->ConnId) + "\n",
               nullptr, 0);
    }
    ManifestDirty = true;

    // Deliver to the original connection and to every waiter that attached
    // on the same idempotent job id while it ran.
    auto Deliver = [&](uint64_t ConnId) {
      Connection *C = findConn(ConnId);
      if (!C) {
        ++Orphaned;
        return;
      }
      C->JobId = 0;
      // The spool belongs to the job's outcome from here on: a partial
      // keeps it for resume, anything else unlinks it below.
      C->SpoolPath.clear();
      if (OkResult || Partial) {
        enqueueFrame(*C, FrameType::Reply, E.Result.ReplyJson);
      } else {
        enqueueError(*C, wireCode(E.Error.code()), E.Error.message());
      }
      C->St = Connection::State::Dispatched; // beginClose releases right.
      beginClose(*C, /*Flush=*/true);
    };
    Deliver(J->ConnId);
    for (uint64_t W : J->Waiters)
      Deliver(W);

    CommittedBytes -= J->Estimate;
    if (OkResult || (!E.Error.ok() && !Partial)) {
      // Finished or failed for good: the spool and the per-job checkpoint
      // are no longer needed (dedup seeds are separate hard links).
      (void)vfs().unlink(J->SpoolPath);
      (void)vfs().unlink(J->CheckpointPath);
    }
    Jobs.erase(std::remove_if(Jobs.begin(), Jobs.end(),
                              [&](const JobInfo &X) {
                                return X.JobId == E.JobId;
                              }),
               Jobs.end());
  }

  //===--------------------------------------------------------------------===//
  // Replication: standby side
  //===--------------------------------------------------------------------===//

  ReplStream *findRStream(uint64_t ConnId) {
    auto It = RStreams.find(ConnId);
    return It == RStreams.end() ? nullptr : &It->second;
  }

  void dropRStream(ReplStream &R) {
    if (R.Spool) {
      (void)R.Spool->close();
      R.Spool.reset();
    }
    if (R.CkptTmp) {
      (void)R.CkptTmp->close();
      R.CkptTmp.reset();
    }
    if (!R.SpoolPath.empty())
      (void)vfs().unlink(R.SpoolPath);
    if (!R.CkptTmpPath.empty())
      (void)vfs().unlink(R.CkptTmpPath);
    if (!R.CkptPath.empty())
      (void)vfs().unlink(R.CkptPath);
  }

  void wipeReplicatedState() {
    for (auto &[Id, R] : RStreams)
      dropRStream(R);
    RStreams.clear();
    Replay.clear();
  }

  void standbyLinkDown(const char *Why) {
    if (ReplFd >= 0) {
      close(ReplFd);
      ReplFd = -1;
    }
    AckOut = SendQueue(256u << 10, FaultSite::AckShortWrite);
    std::fprintf(stderr,
                 "gcache_serve: standby: link to primary lost (%s)\n", Why);
    // The lease clock keeps running from the last heartbeat: if the
    // primary stays gone, promotion follows; if it comes back, the
    // reconnect below resyncs from scratch.
  }

  void standbyConnect(int64_t Now) {
    NextConnectMs =
        Now + 50 + static_cast<int64_t>(ReconnectJitter.below(100));
    Expected<int> Fd = connectUnix(Opts.StandbyOf);
    if (!Fd)
      return;
    ReplFd = *Fd;
    if (!setNonBlocking(ReplFd).ok()) {
      close(ReplFd);
      ReplFd = -1;
      return;
    }
    ReplDec = FrameDecoder();
    AckOut = SendQueue(256u << 10, FaultSite::AckShortWrite);
    ReplSeqSeen = 0;
    wipeReplicatedState(); // A (re)attach is always a full resync.
    std::vector<uint8_t> Hello;
    encodeFrame(FrameType::Hello,
                "role=standby\nepoch=" + std::to_string(Epoch) + "\n", Hello);
    (void)AckOut.enqueue(Hello);
    LastPrimaryMs = Now; // A fresh lease for the new attach.
  }

  /// Applies one replicated message. Sequence integrity is already
  /// checked by the caller, so arrival order equals primary send order.
  void applyRepl(const ReplMsg &M, const Frame &F) {
    auto Kv = parseKvLines(M.Header);
    uint64_t ConnId =
        std::strtoull(kvGet(Kv, "conn", "0").c_str(), nullptr, 10);
    const uint8_t *Body = F.Payload.data() + M.BodyOffset;
    size_t BodyLen = F.Payload.size() - M.BodyOffset;
    switch (M.Kind) {
    case ReplKind::Hello: {
      auto It = RStreams.find(ConnId);
      if (It != RStreams.end()) {
        dropRStream(It->second);
        RStreams.erase(It);
      }
      ReplStream R;
      R.Client = kvGet(Kv, "client", "anonymous");
      R.ConfigSpec = kvGet(Kv, "config");
      R.IdKey = kvGet(Kv, "idkey");
      R.SpoolPath = rspoolPath(ConnId);
      Expected<std::unique_ptr<VfsFile>> Sp = vfs().openWrite(R.SpoolPath);
      if (!Sp)
        return; // Disk trouble: promotion will simply lack this stream.
      R.Spool = std::move(*Sp);
      RStreams.emplace(ConnId, std::move(R));
      return;
    }
    case ReplKind::Chunk: {
      ReplStream *R = findRStream(ConnId);
      if (!R || !R->Spool)
        return;
      if (BodyLen && !R->Spool->write(Body, BodyLen).ok()) {
        dropRStream(*R);
        RStreams.erase(ConnId);
        return;
      }
      R->Bytes += BodyLen;
      return;
    }
    case ReplKind::End: {
      ReplStream *R = findRStream(ConnId);
      if (!R || !R->Spool)
        return;
      // Mirror the primary's End-time durability: a standby that later
      // promotes must not serve a job from a spool that lost its tail.
      (void)R->Spool->sync();
      (void)R->Spool->close();
      R->Spool.reset();
      R->EndSeen = true;
      R->JobId = std::strtoull(kvGet(Kv, "job", "0").c_str(), nullptr, 10);
      R->DeclRecords =
          std::strtoull(kvGet(Kv, "records", "0").c_str(), nullptr, 10);
      R->DeclCrc = static_cast<uint32_t>(
          std::strtoull(kvGet(Kv, "crc", "0").c_str(), nullptr, 10));
      return;
    }
    case ReplKind::Ckpt: {
      ReplStream *R = findRStream(ConnId);
      if (!R)
        return;
      uint64_t Off =
          std::strtoull(kvGet(Kv, "off", "0").c_str(), nullptr, 10);
      if (Off == 0) {
        if (R->CkptTmp)
          (void)R->CkptTmp->close();
        R->CkptTmpPath = rckptPath(ConnId) + ".tmp";
        Expected<std::unique_ptr<VfsFile>> T = vfs().openWrite(R->CkptTmpPath);
        R->CkptTmp = T ? std::move(*T) : nullptr;
        R->CkptTmpCrc = 0;
      }
      if (!R->CkptTmp)
        return;
      if (BodyLen && !R->CkptTmp->write(Body, BodyLen).ok()) {
        (void)R->CkptTmp->close();
        R->CkptTmp.reset();
        (void)vfs().unlink(R->CkptTmpPath);
        return;
      }
      R->CkptTmpCrc = crc32(Body, BodyLen, R->CkptTmpCrc);
      if (kvGet(Kv, "eof") != "1")
        return;
      // Final piece: validate the whole-file CRC, then install through the
      // full fsync+rename protocol (the installed checkpoint is the
      // promotion resume value — it must survive a power cut).
      bool Ok = R->CkptTmp->sync().ok();
      Ok = R->CkptTmp->close().ok() && Ok;
      R->CkptTmp.reset();
      uint32_t WantCrc = static_cast<uint32_t>(
          std::strtoull(kvGet(Kv, "filecrc", "0").c_str(), nullptr, 10));
      std::string Final = rckptPath(ConnId);
      if (Ok && WantCrc == R->CkptTmpCrc &&
          vfs().rename(R->CkptTmpPath, Final).ok()) {
        R->HasCkpt = true;
        R->CkptPath = Final;
      } else {
        (void)vfs().unlink(R->CkptTmpPath);
      }
      R->CkptTmpPath.clear();
      return;
    }
    case ReplKind::Result: {
      // A finished idempotent job: cache the reply, drop the stream state.
      replayPush(kvGet(Kv, "idkey"),
                 std::string(reinterpret_cast<const char *>(Body), BodyLen));
      auto It = RStreams.find(ConnId);
      if (It != RStreams.end()) {
        dropRStream(It->second);
        RStreams.erase(It);
      }
      return;
    }
    case ReplKind::Remove: {
      auto It = RStreams.find(ConnId);
      if (It != RStreams.end()) {
        dropRStream(It->second);
        RStreams.erase(It);
      }
      return;
    }
    case ReplKind::SyncDone: {
      SyncedOnce = true;
      ManifestDirty = true;
      if (!Opts.ReadyFile.empty() && !ReadyTouched) {
        touchFile(Opts.ReadyFile);
        ReadyTouched = true;
      }
      return;
    }
    }
  }

  void standbyRead(int64_t Now) {
    uint8_t Buf[1 << 16];
    for (;;) {
      ssize_t N = read(ReplFd, Buf, sizeof(Buf));
      if (N > 0) {
        ReplDec.feed(Buf, static_cast<size_t>(N));
        Frame F;
        for (;;) {
          FrameDecoder::Result R = ReplDec.next(F);
          if (R == FrameDecoder::Result::NeedMore)
            break;
          if (R == FrameDecoder::Result::Bad) {
            standbyLinkDown(ReplDec.error().message().c_str());
            return;
          }
          if (F.Type == FrameType::Heartbeat) {
            HeartbeatMsg H;
            if (!decodeHeartbeatPayload(F.Payload.data(), F.Payload.size(), H)
                     .ok()) {
              standbyLinkDown("malformed heartbeat");
              return;
            }
            LastPrimaryMs = Now;
            PrimaryEpoch = std::max(PrimaryEpoch, H.Epoch);
          } else if (F.Type == FrameType::ReplData) {
            ReplMsg M;
            if (!decodeReplPayload(F.Payload.data(), F.Payload.size(), M)
                     .ok()) {
              standbyLinkDown("malformed replication frame");
              return;
            }
            if (M.Seq != ReplSeqSeen + 1) {
              // A gap (repl-drop, or a primary restart): nothing after it
              // can be trusted. Reconnect for a full resync, immediately.
              standbyLinkDown("replication sequence gap");
              NextConnectMs = Now;
              return;
            }
            ReplSeqSeen = M.Seq;
            LastPrimaryMs = Now;
            applyRepl(M, F);
            // The on-disk manifest is the only window into a standby (it
            // serves no sockets); keep it fresh as replicated state lands.
            ManifestDirty = true;
            std::vector<uint8_t> Ack;
            encodeReplAckFrame({M.Seq, Epoch}, Ack);
            if (!AckOut.enqueue(Ack).ok()) {
              standbyLinkDown("ack queue overflow");
              return;
            }
          } else {
            standbyLinkDown("unexpected frame type from the primary");
            return;
          }
        }
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (N < 0 && errno == EINTR)
        continue;
      standbyLinkDown("primary closed the link");
      return;
    }
  }

  /// Lease expiry: this standby becomes the primary. Bind the client
  /// socket path (listenUnix unlinks the old primary's socket — the
  /// identity fence retires it), start a pool, resubmit every complete
  /// replicated stream from its checkpoint, and seed the dedup registry
  /// from replicated snapshots.
  void promote() {
    Promoted = true;
    Role = HaRole::Primary;
    Epoch = std::max(Epoch, PrimaryEpoch) + 1;
    if (ReplFd >= 0) {
      close(ReplFd);
      ReplFd = -1;
    }
    std::fprintf(stderr,
                 "gcache_serve: standby: lease expired; promoting to "
                 "primary (epoch %llu)\n",
                 static_cast<unsigned long long>(Epoch));

    Expected<int> Fd = listenUnix(Opts.SocketPath);
    if (!Fd) {
      std::fprintf(stderr, "gcache_serve: promotion failed: %s\n",
                   Fd.status().toString().c_str());
      PromoteFailed = true;
      return;
    }
    ListenFd = *Fd;
    recordSockIdentity();
    if (Status S = Pool.start({Opts.Workers, Opts.MaxRetries, Opts.BackoffMs});
        !S.ok()) {
      std::fprintf(stderr, "gcache_serve: promotion failed: %s\n",
                   S.toString().c_str());
      PromoteFailed = true;
      return;
    }

    for (auto &[ConnId, R] : RStreams) {
      if (R.Spool) {
        (void)R.Spool->close();
        R.Spool.reset();
      }
      if (R.CkptTmp) {
        (void)R.CkptTmp->close();
        R.CkptTmp.reset();
        (void)vfs().unlink(R.CkptTmpPath);
      }
      // Replicated checkpoints become dedup seeds, with the coordinates
      // the snapshot itself attests to.
      if (R.HasCkpt && Opts.Dedup) {
        std::string Spec;
        uint64_t Records = 0, Bytes = 0;
        uint32_t Crc = 0;
        if (readServeCheckpointCoords(R.CkptPath, Spec, Records, Bytes,
                                      Crc)) {
          std::string Reg = Opts.Dir + "/dedup_p" + std::to_string(ConnId) +
                            "_" + std::to_string(Bytes) + ".ckpt";
          // An atomic copy, not a hard link: every byte stays inside the
          // Vfs so fault injection and the crash sweep see the seed too.
          Expected<std::vector<uint8_t>> Bytes2 = vfs().readFile(R.CkptPath);
          if (Bytes2 &&
              vfs().writeFileAtomic(Reg, Bytes2->data(), Bytes2->size()).ok())
            Dedup.push_back({Spec, Bytes, Crc, Reg});
        }
      }
      if (!R.EndSeen) {
        // The client never finished streaming; it will reconnect and
        // restart the stream (dedup covers any checkpointed prefix).
        (void)vfs().unlink(R.SpoolPath);
        if (!R.CkptPath.empty())
          (void)vfs().unlink(R.CkptPath);
        continue;
      }
      // A complete in-flight stream: finish it, resuming from the
      // replicated checkpoint when one landed.
      ServeJob Job;
      Job.Client = R.Client;
      Job.ConfigSpec = R.ConfigSpec;
      Job.SpoolPath = R.SpoolPath;
      Job.CheckpointPath = rckptPath(ConnId);
      Job.DeclaredRecords = R.DeclRecords;
      Job.DeclaredCrc = R.DeclCrc;
      Job.CheckpointEveryRecords = Opts.CheckpointEveryRecords;
      Job.Resume = R.HasCkpt;
      Job.CrosscheckEvery = Opts.CrosscheckEvery;
      Job.Audit = Opts.Audit;
      Job.Threads = Opts.Threads;

      JobInfo Info;
      Info.ConnId = 0; // No live connection; waiters attach by IdKey.
      Info.Client = R.Client;
      Info.ConfigSpec = R.ConfigSpec;
      Info.IdKey = R.IdKey;
      Info.SpoolPath = R.SpoolPath;
      Info.CheckpointPath = Job.CheckpointPath;
      Info.SpoolBytes = R.Bytes;
      Info.Estimate = 0;
      Info.DeclRecords = R.DeclRecords;
      Info.DeclCrc = R.DeclCrc;
      Info.HasCkpt = R.HasCkpt;
      Info.JobId = Pool.submit(std::move(Job));
      Jobs.push_back(std::move(Info));
    }
    RStreams.clear();

    // Accept a standby of our own, when configured.
    if (!Opts.ReplListenPath.empty()) {
      Expected<int> RFd = listenUnix(Opts.ReplListenPath);
      if (RFd)
        ReplListenFd = *RFd;
    }
    if (!Opts.PromotedFile.empty())
      touchFile(Opts.PromotedFile);
    NextBeatMs = 0;
    ManifestDirty = true;
  }

  /// One standby loop tick: reconnect, read, ack, evaluate the lease.
  void standbyTick() {
    int64_t Now = nowMs();
    if (ReplFd < 0) {
      if (Now >= NextConnectMs)
        standbyConnect(Now);
    } else {
      standbyRead(Now);
      if (ReplFd >= 0 && !AckOut.empty()) {
        bool Progress = false;
        if (!AckOut.pump(ReplFd, Progress).ok())
          standbyLinkDown("ack write failed");
      }
    }
    if (Promoted || !SyncedOnce)
      return;
    bool Expired =
        Now - LastPrimaryMs > static_cast<int64_t>(Opts.LeaseMs);
    // promote-race fault: the Nth lease evaluation reports expiry even
    // though the primary is alive — the socket-identity fence must let
    // exactly one daemon survive the ensuing split brain.
    if (faultInjector().shouldFire(FaultSite::PromoteRace))
      Expired = true;
    if (Expired)
      promote();
  }

  //===--------------------------------------------------------------------===//
  // Manifest
  //===--------------------------------------------------------------------===//

  void updateManifest() {
    const char *RoleName = Role == HaRole::Solo      ? "solo"
                           : Role == HaRole::Primary ? "primary"
                                                     : "standby";
    std::string J = "{";
    J += "\"drained\":" + std::string(Draining ? "true" : "false");
    J += ",\"role\":\"" + std::string(RoleName) + "\"";
    J += ",\"epoch\":" + std::to_string(Epoch);
    J += ",\"promoted\":" + std::string(Promoted ? "true" : "false");
    J += ",\"replay_hits\":" + std::to_string(ReplayHits);
    J += ",\"replay_entries\":" + std::to_string(Replay.size());
    J += ",\"repl\":{";
    J += "\"standby_attached\":" +
         std::string(StandbyAttached ? "true" : "false");
    J += ",\"seq_sent\":" + std::to_string(ReplSeqSent);
    J += ",\"seq_acked\":" + std::to_string(ReplSeqAcked);
    J += ",\"lag\":" + std::to_string(ReplSeqSent - ReplSeqAcked);
    J += ",\"seq_seen\":" + std::to_string(ReplSeqSeen);
    J += ",\"synced\":" + std::string(SyncedOnce ? "true" : "false");
    J += ",\"resyncs\":" + std::to_string(Resyncs);
    J += ",\"standby_drops\":" + std::to_string(StandbyDrops);
    J += ",\"replicated_streams\":" + std::to_string(RStreams.size());
    J += "}";
    J += ",\"workers\":[";
    {
      std::vector<WorkerPool::WorkerStat> Stats = Pool.workerStats();
      for (size_t I = 0; I < Stats.size(); ++I) {
        if (I)
          J += ",";
        // Distinct key names: the manifest readers use flat key lookup, so
        // per-slot keys must not shadow the top-level counters.
        J += "{\"pid\":" + std::to_string(Stats[I].Pid);
        J += ",\"slot_deaths\":" + std::to_string(Stats[I].Deaths);
        J += ",\"slot_retries\":" + std::to_string(Stats[I].Retries);
        J += ",\"slot_completed\":" + std::to_string(Stats[I].Completed) +
             "}";
      }
    }
    J += "]";
    J += ",\"accepted\":" + std::to_string(Accepted);
    J += ",\"active_clients\":" + std::to_string(activeConns());
    J += ",\"denied_clients\":" + std::to_string(DeniedClients);
    J += ",\"denied_mem\":" + std::to_string(DeniedMem);
    J += ",\"corrupt_streams\":" + std::to_string(CorruptStreams);
    J += ",\"truncated_streams\":" + std::to_string(TruncatedStreams);
    J += ",\"evicted\":" + std::to_string(Evicted);
    J += ",\"accept_failures\":" + std::to_string(AcceptFailures);
    J += ",\"completed\":" + std::to_string(Completed);
    J += ",\"orphaned\":" + std::to_string(Orphaned);
    J += ",\"dedup_hits\":" + std::to_string(DedupHits);
    J += ",\"retries\":" + std::to_string(Pool.retries());
    J += ",\"denials\":" + std::to_string(Pool.denials());
    J += ",\"worker_deaths\":" + std::to_string(Pool.workerDeaths());
    J += ",\"workers_alive\":" + std::to_string(Pool.workersAlive());
    J += ",\"jobs_running\":" + std::to_string(Pool.runningJobs());
    J += ",\"jobs_queued\":" + std::to_string(Pool.queuedJobs());
    J += ",\"committed_bytes\":" + std::to_string(CommittedBytes);
    J += ",\"partials\":[";
    for (size_t I = 0; I < Partials.size(); ++I) {
      const Partial &P = Partials[I];
      if (I)
        J += ",";
      J += "{\"client\":\"" + jsonEscape(P.Client) + "\"";
      J += ",\"config\":\"" + jsonEscape(P.ConfigSpec) + "\"";
      J += ",\"spool\":\"" + jsonEscape(P.SpoolPath) + "\"";
      J += ",\"checkpoint\":\"" + jsonEscape(P.CheckpointPath) + "\"";
      J += ",\"records\":" + std::to_string(P.Records) + "}";
    }
    J += "]}";
    Manifest = std::move(J);
    if (!Opts.Dir.empty())
      (void)writeTextAtomic(manifestPath(), Manifest + "\n");
    ManifestDirty = false;
    if (Opts.Audit)
      auditPartials();
  }

  /// --audit invariant: every partials[] entry names an existing spool
  /// and, unless it names none, an existing checkpoint — the manifest must
  /// never advertise a resume it cannot deliver. A violation fails the
  /// daemon.
  void auditPartials() {
    for (const Partial &P : Partials) {
      std::string Missing =
          !vfs().exists(P.SpoolPath) ? P.SpoolPath
          : !P.CheckpointPath.empty() && !vfs().exists(P.CheckpointPath)
              ? P.CheckpointPath
              : "";
      if (Missing.empty() || AuditFailed)
        continue;
      std::fprintf(stderr,
                   "gcache_serve: audit: partials[] entry for client '%s' "
                   "names '%s', which does not exist\n",
                   P.Client.c_str(), Missing.c_str());
      AuditFailed = true;
    }
  }

  //===--------------------------------------------------------------------===//
  // Drain
  //===--------------------------------------------------------------------===//

  void beginDrain() {
    Draining = true;
    DrainDeadlineMs = nowMs() + Opts.DrainGraceMs;
    ManifestDirty = true;
    if (ListenFd >= 0) {
      close(ListenFd);
      ListenFd = -1;
    }
    Pool.drain();
    for (auto &C : Conns) {
      if (C->St == Connection::State::AwaitHello ||
          C->St == Connection::State::Streaming) {
        enqueueError(*C, "CANCELLED", "server draining (SIGTERM)");
        beginClose(*C, /*Flush=*/true);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // The loop
  //===--------------------------------------------------------------------===//

  int run() {
    SignalGuard::install();
    signal(SIGPIPE, SIG_IGN);

    if (!Opts.Dir.empty()) {
      (void)vfs().mkdir(Opts.Dir); // EEXIST is fine.
      // Half-written "*.tmp" files from a previous crash (spool tmps,
      // checkpoint transfers, manifest tmps) are never authoritative — the
      // atomic rename protocol guarantees it — so sweep them at startup
      // exactly like the supervisor does for its checkpoint dir.
      sweepStaleTmpFiles(Opts.Dir);
    }

    if (!Opts.StandbyOf.empty())
      Role = HaRole::Standby;
    else if (!Opts.ReplListenPath.empty())
      Role = HaRole::Primary;

    if (Role != HaRole::Standby) {
      if (Opts.Stdin) {
        auto C = std::make_unique<Connection>(Opts.SendQueueBytes);
        C->Id = NextConnId++;
        C->InFd = 0;
        C->OutFd = 1;
        C->OwnsFds = false;
        C->LastActivityMs = nowMs();
        (void)setNonBlocking(0);
        ++Accepted;
        Conns.push_back(std::move(C));
      } else {
        Expected<int> Fd = listenUnix(Opts.SocketPath);
        if (!Fd) {
          std::fprintf(stderr, "gcache_serve: %s\n",
                       Fd.status().toString().c_str());
          return ServeExitFailure;
        }
        ListenFd = *Fd;
        recordSockIdentity();
      }

      if (Status S =
              Pool.start({Opts.Workers, Opts.MaxRetries, Opts.BackoffMs});
          !S.ok()) {
        std::fprintf(stderr, "gcache_serve: %s\n", S.toString().c_str());
        return ServeExitFailure;
      }

      if (Role == HaRole::Primary) {
        Expected<int> Fd = listenUnix(Opts.ReplListenPath);
        if (!Fd) {
          std::fprintf(stderr, "gcache_serve: %s\n",
                       Fd.status().toString().c_str());
          return ServeExitFailure;
        }
        ReplListenFd = *Fd;
      }
    }

    updateManifest();
    // A standby signals readiness only once its first full resync has
    // landed (SyncDone), not at startup.
    if (!Opts.ReadyFile.empty() && Role != HaRole::Standby) {
      touchFile(Opts.ReadyFile);
      ReadyTouched = true;
    }

    std::vector<pollfd> Fds;
    std::vector<WorkerPool::Event> Events;
    for (;;) {
      if (cancelToken().requested()) {
        if (Role == HaRole::Standby) {
          // A standby holds no client state before promotion: exit clean.
          wipeReplicatedState();
          updateManifest();
          return ServeExitOk;
        }
        if (!Draining)
          beginDrain();
      }

      //-- Standby: a dedicated small loop body -----------------------------
      if (Role == HaRole::Standby) {
        Fds.clear();
        if (ReplFd >= 0) {
          short Ev = POLLIN;
          if (!AckOut.empty())
            Ev |= POLLOUT;
          Fds.push_back({ReplFd, Ev, 0});
        }
        int R = poll(Fds.empty() ? nullptr : Fds.data(), Fds.size(), 20);
        if (R < 0 && errno != EINTR) {
          std::fprintf(stderr, "gcache_serve: poll: %s\n",
                       std::strerror(errno));
          return ServeExitFailure;
        }
        standbyTick();
        if (PromoteFailed)
          return ServeExitFailure;
        if (ManifestDirty)
          updateManifest();
        continue; // A promotion flips Role; the next tick serves clients.
      }

      //-- Primary / solo ---------------------------------------------------
      Fds.clear();
      if (ListenFd >= 0)
        Fds.push_back({ListenFd, POLLIN, 0});
      for (auto &C : Conns) {
        short Ev = 0;
        if (C->St != Connection::State::Closing)
          Ev |= POLLIN;
        if (!C->Out.empty() && C->OutFd == C->InFd)
          Ev |= POLLOUT;
        if (Ev && C->InFd >= 0)
          Fds.push_back({C->InFd, Ev, 0});
        if (!C->Out.empty() && C->OutFd != C->InFd && C->OutFd >= 0)
          Fds.push_back({C->OutFd, POLLOUT, 0});
      }
      if (ReplListenFd >= 0)
        Fds.push_back({ReplListenFd, POLLIN, 0});
      if (ReplFd >= 0) {
        short Ev = POLLIN;
        if (!ReplOut.empty())
          Ev |= POLLOUT;
        Fds.push_back({ReplFd, Ev, 0});
      }
      Pool.appendPollFds(Fds);

      int Timeout = 100;
      if (Role == HaRole::Primary)
        Timeout = std::max(1, std::min<int>(Timeout, Opts.HeartbeatMs));
      int Wake = Pool.nextWakeMs();
      if (Wake >= 0 && Wake < Timeout)
        Timeout = std::max(1, Wake);
      int R = poll(Fds.data(), Fds.size(), Timeout);
      if (R < 0 && errno != EINTR) {
        std::fprintf(stderr, "gcache_serve: poll: %s\n",
                     std::strerror(errno));
        return ServeExitFailure;
      }

      if (cancelToken().requested() && !Draining)
        beginDrain();

      if (Role == HaRole::Primary) {
        if (ReplListenFd >= 0)
          acceptStandby();
        if (ReplFd >= 0)
          serviceRepl();
        if (ReplFd >= 0 && !ReplOut.empty()) {
          bool Progress = false;
          if (!ReplOut.pump(ReplFd, Progress).ok())
            dropStandby("replication write failed");
        }
        primaryTick(nowMs());
        if (Superseded)
          return exitSuperseded();
      }

      if (ListenFd >= 0 && !Draining)
        acceptNew();

      // Service every connection each tick: reads are nonblocking, and
      // pumping an empty queue is free — simpler than revents bookkeeping.
      int64_t Now = nowMs();
      for (auto &C : Conns) {
        if (C->InFd < 0 && C->OutFd < 0)
          continue;
        if (C->InFd >= 0 && !serviceRead(*C)) {
          destroyConn(*C);
          continue;
        }
        if (!C->Out.empty()) {
          bool Progress = false;
          if (!C->Out.pump(C->OutFd, Progress).ok()) {
            destroyConn(*C);
            continue;
          }
          if (Progress)
            C->LastActivityMs = Now;
        }
        if (C->St == Connection::State::Closing && C->Out.empty()) {
          destroyConn(*C);
          continue;
        }
        // Deadline-based eviction: a connection that has neither sent a
        // byte nor drained a byte for --idle-timeout is evicted; a closing
        // connection that will not drain its last frames is cut off.
        if (Opts.IdleTimeoutMs &&
            Now - C->LastActivityMs >
                static_cast<int64_t>(Opts.IdleTimeoutMs) &&
            C->St != Connection::State::Dispatched) {
          if (C->St == Connection::State::Closing) {
            destroyConn(*C);
            continue;
          }
          ++Evicted;
          ManifestDirty = true;
          enqueueError(*C, "DEADLINE",
                       "evicted after " + std::to_string(Opts.IdleTimeoutMs) +
                           " ms without progress");
          beginClose(*C, /*Flush=*/true);
        }
      }
      Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                 [](const std::unique_ptr<Connection> &C) {
                                   return C->InFd < 0 && C->OutFd < 0;
                                 }),
                  Conns.end());

      Events.clear();
      Pool.pump(Events);
      for (const WorkerPool::Event &E : Events)
        onPoolEvent(E);

      if (ManifestDirty)
        updateManifest();

      if (Opts.Stdin && Conns.empty() && Pool.idle() && !Draining) {
        Pool.stop();
        updateManifest();
        return ServeExitOk;
      }
      if (Draining) {
        bool JobsDone = Pool.idle() || nowMs() > DrainDeadlineMs;
        bool FlushDone = Conns.empty() || nowMs() > DrainDeadlineMs;
        if (JobsDone && FlushDone) {
          for (auto &C : Conns)
            destroyConn(*C);
          Conns.clear();
          Pool.stop();
          Draining = true;
          updateManifest();
          return ServeExitDrained;
        }
      }
    }
  }
};

TraceService::TraceService(ServeOptions Opts)
    : P(std::make_unique<Impl>(std::move(Opts))) {}

TraceService::~TraceService() = default;

int TraceService::run() {
  int Code = P->run();
  return P->AuditFailed ? ServeExitFailure : Code;
}

