//===- make_corpus.cpp - Generate binary fuzz-corpus seeds --------------------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
// Writes small, *valid* trace and snapshot files through the real
// writers, so the checked-in corpus seeds exercise the accept paths of
// the fuzz targets (mutation from a valid seed reaches far deeper than
// mutation from garbage). Scheme seeds are plain text and are checked in
// directly.
//
// Usage: make_corpus <trace-dir> <snapshot-dir> [frame-dir]
//
//===----------------------------------------------------------------------===//

#include "gcache/memsys/Cache.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Wire.h"
#include "gcache/trace/TraceFile.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace gcache;

namespace {

int die(const Status &S) {
  std::fprintf(stderr, "make_corpus: %s\n", S.message().c_str());
  return 1;
}

/// A small but representative event stream: both phases, both access
/// kinds, allocations, and a GC pause.
void emitEvents(TraceSink &Out) {
  for (uint32_t I = 0; I != 64; ++I) {
    Ref R;
    R.Addr = 0x1000 + I * 12;
    R.Kind = (I % 3) ? AccessKind::Load : AccessKind::Store;
    R.ExecPhase = Phase::Mutator;
    Out.onRef(R);
    if (I % 8 == 0)
      Out.onAlloc(0x8000 + I * 16, 16);
  }
  Out.onGcBegin();
  for (uint32_t I = 0; I != 16; ++I) {
    Ref R;
    R.Addr = 0x2000 + I * 8;
    R.Kind = AccessKind::Load;
    R.ExecPhase = Phase::Collector;
    Out.onRef(R);
  }
  Out.onGcEnd();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3 && Argc != 4) {
    std::fprintf(stderr, "usage: %s <trace-dir> <snapshot-dir> [frame-dir]\n",
                 Argv[0]);
    return 2;
  }
  std::string TraceDir = Argv[1], SnapDir = Argv[2];

  // Seed 1: a complete valid trace.
  {
    TraceWriter W;
    if (Status S = W.open(TraceDir + "/valid.gctrace"); !S.ok())
      return die(S);
    emitEvents(W);
    if (Status S = W.close(); !S.ok())
      return die(S);
  }
  // Seed 2: an empty (but valid) trace.
  {
    TraceWriter W;
    if (Status S = W.open(TraceDir + "/empty.gctrace"); !S.ok())
      return die(S);
    if (Status S = W.close(); !S.ok())
      return die(S);
  }

  // Seed 3: a snapshot holding real cache state plus an unknown section
  // (readers must skip sections they do not recognize).
  {
    Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
    emitEvents(C);
    SnapshotWriter W;
    W.beginSection("cache-state");
    C.saveState(W);
    W.beginSection("experimental-telemetry");
    W.putU32(7);
    W.putString("not a section this tree knows about");
    if (Status S = W.writeFile(SnapDir + "/cache_state.gcsnap"); !S.ok())
      return die(S);
  }
  // Seed 4: a minimal empty container.
  {
    SnapshotWriter W;
    if (Status S = W.writeFile(SnapDir + "/empty.gcsnap"); !S.ok())
      return die(S);
  }

  // Seed 5 (frame corpus): a complete serve conversation — Hello, Data
  // frames carrying real encoded records, End — as one byte stream, plus
  // a lone StatusReq. These are the accept-path seeds for fuzz_frame.
  if (Argc == 4) {
    std::string FrameDir = Argv[3];
    {
      TraceByteEncoder Enc;
      for (uint32_t I = 0; I != 64; ++I) {
        Enc.ref({0x1000 + I * 12,
                 (I % 3) ? AccessKind::Load : AccessKind::Store,
                 Phase::Mutator});
        if (I % 8 == 0)
          Enc.alloc(0x8000 + I * 16, 16);
      }
      Enc.gcBegin();
      for (uint32_t I = 0; I != 16; ++I)
        Enc.ref({0x2000 + I * 8, AccessKind::Load, Phase::Collector});
      Enc.gcEnd();
      std::vector<uint8_t> Wire;
      encodeFrame(FrameType::Hello, "client=corpus\nconfig=size=64k,block=64\n",
                  Wire);
      std::vector<uint8_t> Records = Enc.takeBytes();
      size_t Half = Records.size() / 2;
      encodeFrame(FrameType::Data, Records.data(), Half, Wire);
      encodeFrame(FrameType::Data, Records.data() + Half,
                  Records.size() - Half, Wire);
      std::vector<uint8_t> End;
      for (int I = 0; I != 8; ++I)
        End.push_back(static_cast<uint8_t>(Enc.recordCount() >> (8 * I)));
      for (int I = 0; I != 4; ++I)
        End.push_back(static_cast<uint8_t>(Enc.crc() >> (8 * I)));
      encodeFrame(FrameType::End, End.data(), End.size(), Wire);
      FILE *F = std::fopen((FrameDir + "/session.gsf").c_str(), "wb");
      if (!F || std::fwrite(Wire.data(), 1, Wire.size(), F) != Wire.size())
        return die(Status::fail(StatusCode::IoError, "frame seed write"));
      std::fclose(F);
    }
    {
      std::vector<uint8_t> Wire;
      encodeFrame(FrameType::StatusReq, "", Wire);
      FILE *F = std::fopen((FrameDir + "/statusreq.gsf").c_str(), "wb");
      if (!F || std::fwrite(Wire.data(), 1, Wire.size(), F) != Wire.size())
        return die(Status::fail(StatusCode::IoError, "frame seed write"));
      std::fclose(F);
    }
    // Seed 6: a replication conversation as the standby sees it — the
    // resync (Hello, spooled Chunk, End, a final Ckpt piece, a cached
    // Result, SyncDone) followed by a Heartbeat, plus the ReplAck the
    // standby would send back. Every ReplKind appears except Remove,
    // which mutation reaches by flipping the kind byte.
    {
      TraceByteEncoder Enc;
      for (uint32_t I = 0; I != 8; ++I)
        Enc.ref({0x3000 + I * 16, AccessKind::Load, Phase::Mutator});
      std::vector<uint8_t> Records = Enc.takeBytes();
      std::vector<uint8_t> Wire;
      uint64_t Seq = 1;
      encodeReplFrame(Seq++, ReplKind::Hello,
                      "conn=7\nclient=corpus\nconfig=size=64k,block=64\n"
                      "job=repl-seed\n",
                      nullptr, 0, Wire);
      encodeReplFrame(Seq++, ReplKind::Chunk, "conn=7\n", Records.data(),
                      Records.size(), Wire);
      char EndHdr[96];
      std::snprintf(EndHdr, sizeof(EndHdr),
                    "conn=7\njobid=1\nrecords=%llu\ncrc=%u\n",
                    static_cast<unsigned long long>(Enc.recordCount()),
                    Enc.crc());
      encodeReplFrame(Seq++, ReplKind::End, EndHdr, nullptr, 0, Wire);
      const char CkptBody[] = "checkpoint bytes";
      char CkptHdr[128];
      std::snprintf(CkptHdr, sizeof(CkptHdr),
                    "conn=7\njobid=1\noff=0\neof=1\nrecords=%llu\nbytes=%zu\n"
                    "crc=%u\nfilecrc=0\n",
                    static_cast<unsigned long long>(Enc.recordCount()),
                    sizeof(CkptBody) - 1, Enc.crc());
      encodeReplFrame(Seq++, ReplKind::Ckpt, CkptHdr, CkptBody,
                      sizeof(CkptBody) - 1, Wire);
      const char Reply[] = "{\"mutator_loads\":8}";
      encodeReplFrame(Seq++, ReplKind::Result,
                      "conn=7\njobid=1\njob=repl-seed\n", Reply,
                      sizeof(Reply) - 1, Wire);
      encodeReplFrame(Seq++, ReplKind::SyncDone, "", nullptr, 0, Wire);
      encodeHeartbeatFrame({/*Epoch=*/1, /*Seq=*/Seq - 1}, Wire);
      encodeReplAckFrame({/*Seq=*/Seq - 1, /*Epoch=*/1}, Wire);
      FILE *F = std::fopen((FrameDir + "/replication.gsf").c_str(), "wb");
      if (!F || std::fwrite(Wire.data(), 1, Wire.size(), F) != Wire.size())
        return die(Status::fail(StatusCode::IoError, "frame seed write"));
      std::fclose(F);
    }
  }

  std::printf("corpus seeds written to %s and %s\n", TraceDir.c_str(),
              SnapDir.c_str());
  return 0;
}
