//===- Audit.cpp - Online conservation-law auditor --------------------------===//

#include "gcache/core/Audit.h"

#include "gcache/trace/Sinks.h"

#include <cmath>

using namespace gcache;

Status gcache::auditLocalMissCurves(const LocalMissCurves &Curves,
                                    const Cache &Sim) {
  const std::string Label = Sim.config().label();
  uint64_t SumRefs = 0, SumMisses = 0;
  uint64_t PrevRefs = 0;
  double PrevMissFrac = 0, PrevRefFrac = 0;
  for (size_t I = 0; I != Curves.Points.size(); ++I) {
    const LocalBlockPoint &P = Curves.Points[I];
    if (P.Refs < PrevRefs)
      return Status::failf(StatusCode::AuditFailure,
                           "%s: local-miss point %zu breaks the ascending "
                           "reference order (%llu after %llu)",
                           Label.c_str(), I,
                           static_cast<unsigned long long>(P.Refs),
                           static_cast<unsigned long long>(PrevRefs));
    if (P.Misses > P.Refs)
      return Status::failf(StatusCode::AuditFailure,
                           "%s: local-miss point %zu has more misses (%llu) "
                           "than references (%llu)",
                           Label.c_str(), I,
                           static_cast<unsigned long long>(P.Misses),
                           static_cast<unsigned long long>(P.Refs));
    if (P.CumMissFraction + 1e-9 < PrevMissFrac ||
        P.CumRefFraction + 1e-9 < PrevRefFrac)
      return Status::failf(StatusCode::AuditFailure,
                           "%s: local-miss point %zu has a non-monotone "
                           "cumulative fraction",
                           Label.c_str(), I);
    PrevRefs = P.Refs;
    PrevMissFrac = P.CumMissFraction;
    PrevRefFrac = P.CumRefFraction;
    SumRefs += P.Refs;
    SumMisses += P.Misses;
  }
  // The curves must restate the cache's own per-phase counters exactly.
  CacheCounters T = Sim.totalCounters();
  if (SumRefs != T.refs())
    return Status::failf(StatusCode::AuditFailure,
                         "%s: local-miss points sum to %llu refs, the cache "
                         "counted %llu",
                         Label.c_str(),
                         static_cast<unsigned long long>(SumRefs),
                         static_cast<unsigned long long>(T.refs()));
  if (SumMisses != T.FetchMisses)
    return Status::failf(StatusCode::AuditFailure,
                         "%s: local-miss points sum to %llu fetch misses, "
                         "the cache counted %llu",
                         Label.c_str(),
                         static_cast<unsigned long long>(SumMisses),
                         static_cast<unsigned long long>(T.FetchMisses));
  double WantRatio =
      SumRefs ? static_cast<double>(SumMisses) / static_cast<double>(SumRefs)
              : 0.0;
  if (std::fabs(Curves.GlobalMissRatio - WantRatio) > 1e-12)
    return Status::failf(StatusCode::AuditFailure,
                         "%s: global miss ratio endpoint %.17g does not "
                         "equal fetch-misses/refs = %.17g",
                         Label.c_str(), Curves.GlobalMissRatio, WantRatio);
  if (!Curves.Points.empty()) {
    const LocalBlockPoint &Last = Curves.Points.back();
    if (SumRefs && std::fabs(Last.CumRefFraction - 1.0) > 1e-9)
      return Status::failf(StatusCode::AuditFailure,
                           "%s: cumulative reference fraction ends at %.17g, "
                           "not 1",
                           Label.c_str(), Last.CumRefFraction);
    if (SumMisses && std::fabs(Last.CumMissFraction - 1.0) > 1e-9)
      return Status::failf(StatusCode::AuditFailure,
                           "%s: cumulative miss fraction ends at %.17g, "
                           "not 1",
                           Label.c_str(), Last.CumMissFraction);
  }
  return Status();
}

Status gcache::auditMissPlot(const MissPlot &Plot) {
  const Cache &Sim = Plot.cache();
  const std::string Label = Sim.config().label();
  if (Status S = Sim.auditState(); !S.ok())
    return S;
  // The plot buckets time into fixed-size columns; the column count must
  // cover exactly the references seen.
  uint64_t WantCols =
      (Plot.refsSeen() + Plot.refsPerColumn() - 1) / Plot.refsPerColumn();
  if (Plot.columns() != WantCols)
    return Status::failf(StatusCode::AuditFailure,
                         "%s: miss plot has %llu columns for %llu refs "
                         "(%u per column; expected %llu)",
                         Label.c_str(),
                         static_cast<unsigned long long>(Plot.columns()),
                         static_cast<unsigned long long>(Plot.refsSeen()),
                         Plot.refsPerColumn(),
                         static_cast<unsigned long long>(WantCols));
  // Each miss marks at most one (column, block) cell, and a miss always
  // marks its cell — so marked cells and total misses bound each other.
  uint64_t Marked = 0;
  uint32_t NumBlocks = Sim.config().numSets();
  for (uint64_t Col = 0; Col != Plot.columns(); ++Col)
    for (uint32_t B = 0; B != NumBlocks; ++B)
      Marked += Plot.missedAt(Col, B) ? 1 : 0;
  uint64_t Misses = Sim.totalCounters().allMisses();
  if (Marked > Misses)
    return Status::failf(StatusCode::AuditFailure,
                         "%s: miss plot marks %llu cells but the cache "
                         "counted only %llu misses",
                         Label.c_str(),
                         static_cast<unsigned long long>(Marked),
                         static_cast<unsigned long long>(Misses));
  if (Misses > 0 && Marked == 0)
    return Status::failf(StatusCode::AuditFailure,
                         "%s: the cache counted %llu misses but the plot "
                         "marks no cells",
                         Label.c_str(),
                         static_cast<unsigned long long>(Misses));
  return Status();
}

void AuditSink::adoptBaseline() {
  if (!Counts)
    return;
  Refs[0][0] = Counts->loads(Phase::Mutator);
  Refs[0][1] = Counts->stores(Phase::Mutator);
  Refs[1][0] = Counts->loads(Phase::Collector);
  Refs[1][1] = Counts->stores(Phase::Collector);
}

void AuditSink::runAudit(const char *Where) {
  if (Status S = check(Where); !S.ok())
    throw StatusError(std::move(S));
}

Status AuditSink::check(const char *Where) {
  ++AuditsRun;
  uint64_t MyLoads[2] = {Refs[0][0], Refs[1][0]};
  uint64_t MyStores[2] = {Refs[0][1], Refs[1][1]};
  // The CountingSink and the auditor both counted every delivered
  // reference independently; any disagreement means the bus dropped or
  // reordered deliveries.
  if (Counts) {
    for (unsigned P = 0; P != 2; ++P) {
      Phase Ph = static_cast<Phase>(P);
      const char *Name = P ? "collector" : "mutator";
      if (Counts->loads(Ph) != MyLoads[P] || Counts->stores(Ph) != MyStores[P])
        return Status::failf(
            StatusCode::AuditFailure,
            "%s: CountingSink saw %llu/%llu %s loads/stores, the auditor "
            "saw %llu/%llu",
            Where, static_cast<unsigned long long>(Counts->loads(Ph)),
            static_cast<unsigned long long>(Counts->stores(Ph)), Name,
            static_cast<unsigned long long>(MyLoads[P]),
            static_cast<unsigned long long>(MyStores[P]));
    }
  }
  if (!Bank)
    return Status();
  // GC boundaries reach the auditor after the bank (bus order), so every
  // buffered batch has been simulated: each cache must have consumed the
  // exact reference stream the auditor witnessed. Since a hit is exactly a
  // reference that missed nowhere, loads+stores == refs is the
  // hits + fetch-misses + no-fetch-misses == refs conservation law.
  for (size_t I = 0; I != Bank->size(); ++I) {
    const Cache &C = Bank->cache(I);
    for (unsigned P = 0; P != 2; ++P) {
      const CacheCounters &K = C.counters(static_cast<Phase>(P));
      const char *Name = P ? "collector" : "mutator";
      if (K.Loads != MyLoads[P] || K.Stores != MyStores[P])
        return Status::failf(
            StatusCode::AuditFailure,
            "%s: %s counted %llu/%llu %s loads/stores, the auditor "
            "delivered %llu/%llu",
            Where, C.config().label().c_str(),
            static_cast<unsigned long long>(K.Loads),
            static_cast<unsigned long long>(K.Stores), Name,
            static_cast<unsigned long long>(MyLoads[P]),
            static_cast<unsigned long long>(MyStores[P]));
    }
  }
  // The line-level laws, on materialized lines.
  return Bank->auditAll();
}
