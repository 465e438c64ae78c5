//===- Tracing.cpp - Benchmark-owned spans around the layers ---------------===//

#include "Tracing.h"

#include <cstdio>
#include <filesystem>

using namespace gcache;
using namespace perfbench;

double SpanTotals::total(const std::string &Name) const {
  auto It = Total.find(Name);
  return It == Total.end() ? 0.0 : It->second;
}

double SpanTotals::self(const std::string &Name) const {
  auto It = Self.find(Name);
  return It == Self.end() ? 0.0 : It->second;
}

uint32_t Tracer::intern(const std::string &Name) {
  auto [It, Inserted] = Ids.try_emplace(Name, Names.size());
  if (Inserted)
    Names.push_back(Name);
  return It->second;
}

uint32_t Tracer::open(uint32_t Name) {
  uint32_t Parent = Stack.empty() ? NoParent : Stack.back();
  Spans.push_back({Name, Parent, CurrentRun, nowNs(), 0});
  Stack.push_back(static_cast<uint32_t>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::close(uint32_t Idx) {
  // Spans an exception left open (a collector span, say) end here too.
  uint64_t Now = nowNs();
  while (!Stack.empty()) {
    uint32_t Top = Stack.back();
    Stack.pop_back();
    Spans[Top].End = Now;
    if (Top == Idx)
      return;
  }
}

SpanTotals Tracer::totals(uint32_t FirstRun, uint32_t LastRun) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != NoParent)
      ChildNs[S.Parent] += S.End - S.Start;
  SpanTotals Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Run < FirstRun || S.Run > LastRun)
      continue;
    uint64_t Dur = S.End - S.Start;
    Out.Total[Names[S.Name]] += Dur * 1e-9;
    Out.Self[Names[S.Name]] += (Dur - ChildNs[I]) * 1e-9;
  }
  return Out;
}

bool Tracer::writeTsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id\tname\tparent\trun\tstart_ns\tend_ns\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%s\t%lld\t%u\t%llu\t%llu\n", I,
                 Names[S.Name].c_str(),
                 S.Parent == NoParent ? -1LL : static_cast<long long>(S.Parent),
                 S.Run, static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End));
  }
  return std::fclose(F) == 0;
}

ChunkProxy::ChunkProxy(Tracer &T, const std::vector<Target> &Targets)
    : T(T) {
  for (const Target &Tg : Targets)
    Slots.push_back({Tg.Sink, T.intern(Tg.DataSpan), T.intern(Tg.EventSpan)});
  Buf.reserve(ChunkEvents);
}

void ChunkProxy::drain() {
  if (Buf.empty())
    return;
  for (const Slot &S : Slots) {
    uint32_t Idx = T.open(S.DataSpan);
    for (const Ev &E : Buf) {
      if (E.Op == AllocOp)
        S.Sink->onAlloc(E.A, E.B);
      else
        S.Sink->onRef({E.A, static_cast<AccessKind>(E.Op & 1),
                       static_cast<Phase>(E.Op >> 1)});
    }
    T.close(Idx);
  }
  Buf.clear();
}

template <typename Fn> void ChunkProxy::forward(Fn &&F) {
  drain();
  for (const Slot &S : Slots) {
    uint32_t Idx = T.open(S.EventSpan);
    F(*S.Sink);
    T.close(Idx);
  }
}

void ChunkProxy::onGcBegin() {
  ++Boundaries;
  forward([](TraceSink &S) { S.onGcBegin(); });
}

void ChunkProxy::onGcEnd() {
  ++Boundaries;
  forward([](TraceSink &S) { S.onGcEnd(); });
}

void ChunkProxy::onGcPhase(GcPhase P) {
  forward([P](TraceSink &S) { S.onGcPhase(P); });
}

GcSpans::GcSpans(Tracer &T) : T(T), GcName(T.intern("gc")) {
  for (unsigned P = 0; P != NumGcPhases; ++P)
    PhaseName[P] =
        T.intern(std::string("gc.") + gcPhaseName(static_cast<GcPhase>(P)));
}

void GcSpans::onGcBegin() { Cycle = T.open(GcName); }

void GcSpans::onGcPhase(GcPhase P) {
  if (Phase != NoParent)
    T.close(Phase);
  Phase = T.open(PhaseName[static_cast<unsigned>(P)]);
}

void GcSpans::onGcEnd() {
  if (Phase != NoParent)
    T.close(Phase);
  Phase = NoParent;
  T.close(Cycle);
  Cycle = NoParent;
}

CheckpointVfs::CheckpointVfs(Tracer &T, std::string Prefix)
    : T(T), Prefix(std::move(Prefix)), Name(T.intern("core.checkpoint")) {}

Expected<std::unique_ptr<VfsFile>>
CheckpointVfs::openWrite(const std::string &Path) {
  if (Open == NoParent && Path.rfind(Prefix, 0) == 0)
    Open = T.open(Name);
  return Real.openWrite(Path);
}

Status CheckpointVfs::rename(const std::string &From, const std::string &To) {
  Status S = Real.rename(From, To);
  if (Open != NoParent && To.rfind(Prefix, 0) == 0) {
    T.close(Open);
    Open = NoParent;
    ++Count;
    std::error_code Ec;
    uintmax_t Size = std::filesystem::file_size(To, Ec);
    if (!Ec)
      Bytes += Size;
  }
  return S;
}
