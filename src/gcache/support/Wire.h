//===- Wire.h - CRC-framed wire protocol for the trace service --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace service's wire protocol (bench/gcache_serve): a stream of
/// length-prefixed, CRC-32-checksummed frames over a Unix-domain socket or
/// a stdin/stdout pipe pair. Every frame is independently validated, so a
/// malformed or truncated client stream is detected at the frame where the
/// damage occurs — the connection is dropped with a diagnostic frame and
/// no other connection or server state is affected.
///
/// Frame layout (integers little-endian):
///   magic "GSF1" (4) | type u8 | reserved u8 (0) | payloadLen u32 |
///   payloadCrc u32 (CRC-32 of the payload bytes) | payload
///
/// Frame types:
///   Hello      client -> server: `key=value` lines — `client=<name>` and
///              `config=<spec>` (memsys/CacheConfig.h parseCacheConfigSpec)
///   Data       client -> server: raw v3 trace record bytes (the body of a
///              TraceFile record stream, no GCTR header); records may span
///              frame boundaries
///   End        client -> server: u64 record count | u32 CRC-32 over every
///              Data payload byte — the stream's end-to-end checksum,
///              mirroring the v3 trace footer
///   Reply      server -> client: the simulation result as one-line JSON
///   Error      server -> client: `code\nmessage` — a structured denial or
///              diagnostic (e.g. RESOURCE_EXHAUSTED, CORRUPT, CANCELLED);
///              the server closes the connection after sending it
///   StatusReq  client -> server: empty payload; asks for the manifest
///   Status     server -> client: the live supervisor manifest as JSON
///   ReplData   primary -> standby: one replication message (see below)
///   ReplAck    standby -> primary: u64 highest applied sequence | u64 epoch
///   Heartbeat  primary -> standby: u64 epoch | u64 highest sequence sent —
///              the lease renewal; a standby that misses these past its
///              lease promotes itself (core/TraceService.h)
///
/// A ReplData payload is itself structured:
///   seq u64 | kind u8 | headerLen u32 | header (key=value lines) | body
/// where seq is a per-attachment sequence number (a gap means frames were
/// lost and the standby must resync), kind selects the message (ReplKind),
/// the header carries small coordinates, and the body carries bulk bytes
/// (spool chunks, checkpoint file pieces, reply JSON).
///
/// Classification mirrors the trace layer: a frame whose bytes are wrong
/// (bad magic, unknown type, oversized length, CRC mismatch) is Corrupt; a
/// stream that ends inside a frame is Truncated. The `frame-corrupt` fault
/// site (support/FaultInjector.h) deterministically simulates on-the-wire
/// corruption: the Nth frame any FrameDecoder in the process completes is
/// reported as failing its CRC.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_WIRE_H
#define GCACHE_SUPPORT_WIRE_H

#include "gcache/support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gcache {

/// Wire frame types (see file comment for payloads and direction).
enum class FrameType : uint8_t {
  Hello = 1,
  Data = 2,
  End = 3,
  Reply = 4,
  Error = 5,
  StatusReq = 6,
  Status = 7,
  ReplData = 8,
  ReplAck = 9,
  Heartbeat = 10,
};

/// True for the type values a well-formed frame may carry.
bool isKnownFrameType(uint8_t Type);

/// Frames larger than this are rejected as Corrupt before any allocation:
/// a hostile length field must not make the server reserve gigabytes.
constexpr uint32_t MaxFramePayload = 4u << 20;

/// Fixed bytes before the payload.
constexpr size_t FrameHeaderBytes = 14;

/// One decoded frame.
struct Frame {
  FrameType Type = FrameType::Hello;
  std::vector<uint8_t> Payload;

  std::string payloadText() const {
    return std::string(Payload.begin(), Payload.end());
  }
};

/// Appends the encoded frame for (\p Type, \p Payload) to \p Out.
void encodeFrame(FrameType Type, const void *Payload, size_t Len,
                 std::vector<uint8_t> &Out);
void encodeFrame(FrameType Type, const std::string &Payload,
                 std::vector<uint8_t> &Out);

/// Encodes an Error frame: `code\nmessage`.
void encodeErrorFrame(const std::string &Code, const std::string &Message,
                      std::vector<uint8_t> &Out);

/// Splits an Error frame payload back into code and message.
void splitErrorPayload(const std::string &Payload, std::string &Code,
                       std::string &Message);

/// Incremental frame decoder: feed() appends raw bytes as they arrive from
/// the socket, next() yields whole validated frames. Validation failures
/// are sticky — after the first Corrupt frame the stream is untrustworthy
/// and next() keeps returning the same error.
class FrameDecoder {
public:
  enum class Result : uint8_t {
    Frame,    ///< \p Out holds the next validated frame.
    NeedMore, ///< The buffer ends cleanly or inside a frame; feed more.
    Bad,      ///< The stream is corrupt; error() describes the damage.
  };

  void feed(const void *Data, size_t Len);

  /// Decodes the next whole frame out of the buffered bytes.
  Result next(Frame &Out);

  /// The sticky validation failure once next() has returned Bad.
  const Status &error() const { return Error; }

  /// End-of-stream classification: Ok when the buffer is empty (the peer
  /// closed between frames), Truncated when it ends inside a frame, or the
  /// sticky Corrupt error.
  Status atEof() const;

  /// Frames successfully decoded so far.
  uint64_t frameCount() const { return Frames; }
  /// Bytes currently buffered (bounded by MaxFramePayload + header).
  size_t bufferedBytes() const { return Buf.size() - Head; }

private:
  std::vector<uint8_t> Buf;
  size_t Head = 0; ///< First unconsumed byte in Buf.
  uint64_t Frames = 0;
  Status Error;
};

//===----------------------------------------------------------------------===//
// Replication payloads (primary/standby HA, core/TraceService.h)
//===----------------------------------------------------------------------===//

/// What a ReplData message describes.
enum class ReplKind : uint8_t {
  Hello = 1,    ///< A client connection opened: conn, client, config, job.
  Chunk = 2,    ///< Spool bytes for a connection: conn; body = raw records.
  End = 3,      ///< Stream ended, job dispatched: conn, jobid, records, crc.
  Ckpt = 4,     ///< Checkpoint file piece: conn, jobid, off, and on the
                ///< final piece eof=1 plus records/bytes/crc/filecrc.
  Result = 5,   ///< Job finished: conn, jobid, job (idkey); body = reply.
  Remove = 6,   ///< Connection/job gone without a cacheable result: conn.
  SyncDone = 7, ///< Full-state resync complete; live updates follow.
};
constexpr uint8_t MaxReplKind = 7;

/// One decoded ReplData payload. Header text and body bounds refer back
/// into the frame payload the caller handed to decodeReplPayload.
struct ReplMsg {
  uint64_t Seq = 0;
  ReplKind Kind = ReplKind::Hello;
  std::string Header;    ///< Raw `key=value` lines (parseKvLines).
  size_t BodyOffset = 0; ///< First body byte's offset into the payload.
};

/// Fixed ReplData payload bytes before the header text.
constexpr size_t ReplMsgHeaderBytes = 13;

/// Appends a whole ReplData frame for the message to \p Out. The encoded
/// payload must fit MaxFramePayload; callers split bulk bodies into pieces.
void encodeReplFrame(uint64_t Seq, ReplKind Kind, const std::string &Header,
                     const void *Body, size_t BodyLen,
                     std::vector<uint8_t> &Out);

/// Decodes a ReplData payload. Corrupt when the payload is shorter than its
/// fixed prefix, the kind is unknown, or the header length overruns the
/// payload. decode then encode reproduces the payload byte-identically.
Status decodeReplPayload(const uint8_t *Payload, size_t Len, ReplMsg &Out);

/// The heartbeat lease renewal: the primary's epoch and the highest
/// replication sequence it has sent.
struct HeartbeatMsg {
  uint64_t Epoch = 0;
  uint64_t Seq = 0;
};

void encodeHeartbeatFrame(const HeartbeatMsg &M, std::vector<uint8_t> &Out);
/// Corrupt unless the payload is exactly 16 bytes.
Status decodeHeartbeatPayload(const uint8_t *Payload, size_t Len,
                              HeartbeatMsg &Out);

/// The standby's cumulative acknowledgement: the highest sequence it has
/// applied, and its own epoch (a primary that sees a higher epoch than its
/// own has been superseded).
struct ReplAckMsg {
  uint64_t Seq = 0;
  uint64_t Epoch = 0;
};

void encodeReplAckFrame(const ReplAckMsg &M, std::vector<uint8_t> &Out);
/// Corrupt unless the payload is exactly 16 bytes.
Status decodeReplAckPayload(const uint8_t *Payload, size_t Len,
                            ReplAckMsg &Out);

/// Parses `key=value` lines (Hello payloads, worker job specs). Later
/// duplicates win; lines without '=' are ignored.
std::vector<std::pair<std::string, std::string>>
parseKvLines(const std::string &Text);

/// First value for \p Key in \p Kv, or \p Default.
std::string kvGet(const std::vector<std::pair<std::string, std::string>> &Kv,
                  const std::string &Key, const std::string &Default = "");

/// Minimal JSON string escaping (quotes, backslashes; control bytes are
/// dropped) for the hand-rolled manifest/reply writers.
std::string jsonEscape(const std::string &S);

/// Extracts the integer value of `"Key": <n>` from a flat JSON object
/// text; returns \p Default when absent (tests and the load generator use
/// this instead of a JSON parser).
int64_t jsonFindInt(const std::string &Json, const std::string &Key,
                    int64_t Default = -1);

/// Extracts the string value of `"Key": "..."` (no unescaping beyond \" ).
std::string jsonFindString(const std::string &Json, const std::string &Key);

} // namespace gcache

#endif // GCACHE_SUPPORT_WIRE_H
