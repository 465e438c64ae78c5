//===- Tracing.h - Benchmark-owned spans around the layers ------*- C++ -*-===//
///
/// \file
/// The traced run's instrumentation. Everything here lives in the
/// benchmark: spans are recorded around calls into the measurement core,
/// never inside it.
///
///  - Tracer keeps spans (name, start, end, parent, run id) in memory and
///    writes them out once the run ends.
///  - ChunkProxy sits in front of one or more trace sinks. It buffers
///    references and allocations in order and forwards them in chunks,
///    recording one span per chunk per sink. Before forwarding a GC event
///    it forwards everything pending, so every sink sees the exact serial
///    stream.
///  - GcSpans, placed on the bus after the proxies, turns GC begin/end
///    and phase markers into collector spans.
///  - CheckpointVfs forwards to the real file system and records one span
///    per checkpoint written under a given path prefix.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include "gcache/support/Vfs.h"
#include "gcache/trace/Event.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint32_t Name;
  uint32_t Parent; ///< Index of the enclosing span, or NoParent.
  uint32_t Run;
  uint64_t Start;
  uint64_t End;
};
constexpr uint32_t NoParent = UINT32_MAX;

/// Seconds per span name, both as totals and as self time (a span's
/// duration minus the durations of its direct children).
struct SpanTotals {
  std::map<std::string, double> Total;
  std::map<std::string, double> Self;
  double total(const std::string &Name) const;
  double self(const std::string &Name) const;
};

class Tracer {
public:
  uint32_t intern(const std::string &Name);
  void setRun(uint32_t Run) { CurrentRun = Run; }

  /// Opens a span as a child of the innermost open span.
  uint32_t open(uint32_t Name);
  /// Closes span \p Idx and any span still open inside it.
  void close(uint32_t Idx);

  /// Totals over the spans of runs [FirstRun, LastRun].
  SpanTotals totals(uint32_t FirstRun, uint32_t LastRun) const;
  size_t size() const { return Spans.size(); }

  /// Writes every span as tab-separated text; returns false on I/O error.
  bool writeTsv(const std::string &Path) const;

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t> Ids;
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
  uint32_t CurrentRun = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const std::string &Name)
      : T(T), Idx(T ? T->open(T->intern(Name)) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  uint32_t Idx;
};

class ChunkProxy final : public gcache::TraceSink {
public:
  /// DataSpan names the span of a forwarded chunk, EventSpan the span of a
  /// forwarded GC begin/end (where a bank flushes) or phase marker.
  struct Target {
    gcache::TraceSink *Sink;
    std::string DataSpan;
    std::string EventSpan;
  };

  ChunkProxy(Tracer &T, const std::vector<Target> &Targets);

  void onRef(const gcache::Ref &R) override {
    Buf.push_back({R.Addr, 0,
                   static_cast<uint8_t>(static_cast<unsigned>(R.Kind) |
                                        static_cast<unsigned>(R.ExecPhase)
                                            << 1)});
    if (Buf.size() >= ChunkEvents)
      drain();
  }
  void onAlloc(gcache::Address Addr, uint32_t Bytes) override {
    Buf.push_back({Addr, Bytes, AllocOp});
    if (Buf.size() >= ChunkEvents)
      drain();
  }
  void onGcBegin() override;
  void onGcEnd() override;
  void onGcPhase(gcache::GcPhase P) override;

  /// Forwards everything pending; call once the stream has ended.
  void drain();

  /// GC begin/end events forwarded to each sink.
  uint64_t boundaryEvents() const { return Boundaries; }

private:
  struct Ev {
    uint32_t A;
    uint32_t B;
    uint8_t Op; ///< Bit 0 kind, bit 1 phase; AllocOp for allocations.
  };
  static constexpr uint8_t AllocOp = 4;
  /// Events buffered before a chunk is forwarded.
  static constexpr size_t ChunkEvents = 64 * 1024;
  struct Slot {
    gcache::TraceSink *Sink;
    uint32_t DataSpan;
    uint32_t EventSpan;
  };
  template <typename Fn> void forward(Fn &&F);

  Tracer &T;
  std::vector<Slot> Slots;
  std::vector<Ev> Buf;
  uint64_t Boundaries = 0;
};

/// Opens a "gc" span at each GC begin and one "gc.<phase>" child per phase
/// marker. Must ride on the bus after every ChunkProxy, so the sinks'
/// work for a phase lands inside that phase's span.
class GcSpans final : public gcache::TraceSink {
public:
  explicit GcSpans(Tracer &T);
  void onRef(const gcache::Ref &) override {}
  void onGcBegin() override;
  void onGcPhase(gcache::GcPhase P) override;
  void onGcEnd() override;

private:
  Tracer &T;
  uint32_t PhaseName[gcache::NumGcPhases];
  uint32_t GcName;
  uint32_t Cycle = NoParent;
  uint32_t Phase = NoParent;
};

/// Forwards to the real file system and records a "core.checkpoint" span
/// from the open of each checkpoint slot under \p Prefix to its rename.
class CheckpointVfs final : public gcache::Vfs {
public:
  CheckpointVfs(Tracer &T, std::string Prefix);

  uint64_t checkpoints() const { return Count; }
  uint64_t bytes() const { return Bytes; }

  gcache::Expected<std::unique_ptr<gcache::VfsFile>>
  openWrite(const std::string &Path) override;
  gcache::Expected<std::unique_ptr<gcache::VfsFile>>
  openAppend(const std::string &Path) override {
    return Real.openAppend(Path);
  }
  gcache::Expected<std::unique_ptr<gcache::VfsReadFile>>
  openRead(const std::string &Path) override {
    return Real.openRead(Path);
  }
  gcache::Expected<std::vector<uint8_t>>
  readFile(const std::string &Path) override {
    return Real.readFile(Path);
  }
  bool exists(const std::string &Path) override { return Real.exists(Path); }
  gcache::Status rename(const std::string &From,
                        const std::string &To) override;
  gcache::Status unlink(const std::string &Path) override {
    return Real.unlink(Path);
  }
  gcache::Expected<std::vector<std::string>>
  list(const std::string &Dir) override {
    return Real.list(Dir);
  }
  gcache::Status mkdir(const std::string &Path) override {
    return Real.mkdir(Path);
  }

private:
  gcache::RealVfs Real;
  Tracer &T;
  std::string Prefix;
  uint32_t Name;
  uint32_t Open = NoParent;
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
