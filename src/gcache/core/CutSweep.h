//===- CutSweep.h - One cut-and-resume sweep loop ---------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one loop behind both crash harnesses: cut a run at point k, recover,
/// and require the finished digest to equal the reference. CrashSim cuts
/// the power at the k-th mutating Vfs operation, GcTorture kills the run
/// at the k-th GC step boundary. Each supplies how to run to a cut and how
/// to recover; this loop owns the cut-point rule, the tested/fired counts
/// and the one failure message, which names "cut k of N".
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_CUTSWEEP_H
#define GCACHE_CORE_CUTSWEEP_H

#include "gcache/support/Status.h"

#include <optional>
#include <string>
#include <vector>

namespace gcache {

/// The points of 1..N a sweep tests: all of them when \p MaxCuts is 0 or at
/// least N, else MaxCuts spread evenly with both endpoints (1 tests point 1).
inline std::vector<uint64_t> cutPoints(uint64_t N, uint64_t MaxCuts) {
  const uint64_t Cuts = MaxCuts && MaxCuts < N ? MaxCuts : N;
  std::vector<uint64_t> Points;
  for (uint64_t I = 0; I != Cuts; ++I)
    Points.push_back(Cuts == N   ? I + 1
                     : Cuts == 1 ? 1
                                 : 1 + (I * (N - 1)) / (Cuts - 1));
  return Points;
}

struct CutSweepCounts {
  uint64_t Tested = 0; ///< Cut points run.
  uint64_t Fired = 0;  ///< Runs that really died at their cut.
};

template <typename T> std::string digestText(const T &D) {
  return D.toString();
}
inline std::string digestText(uint32_t D) { return std::to_string(D); }

/// Sweeps cutPoints(N, MaxCuts), or \p OnlyAt alone when nonzero.
/// \p RunToCut(k) runs with the cut armed at k and returns the finished
/// digest if the run outlived its cut, std::nullopt if the cut fired, or
/// an error. After a fired cut, \p Recover(k) returns the recovered run's
/// digest. A digest other than \p Want is Divergence, N == 0 or
/// OnlyAt > N InvalidArgument; a callback's error keeps its code.
template <typename Digest, typename RunFn, typename RecoverFn>
Expected<CutSweepCounts> runCutSweep(const Digest &Want, uint64_t N,
                                     uint64_t MaxCuts, uint64_t OnlyAt,
                                     RunFn &&RunToCut, RecoverFn &&Recover) {
  if (N == 0)
    return Status::fail(StatusCode::InvalidArgument,
                        "the run has no cut points; nothing to sweep");
  if (OnlyAt > N)
    return Status::failf(StatusCode::InvalidArgument,
                         "cut %llu is beyond the run's %llu cut points",
                         (unsigned long long)OnlyAt, (unsigned long long)N);
  CutSweepCounts Counts;
  for (uint64_t K : OnlyAt ? std::vector<uint64_t>{OnlyAt}
                           : cutPoints(N, MaxCuts)) {
    auto Fail = [&](StatusCode Code, const std::string &Why) -> Status {
      return Status::failf(Code, "cut %llu of %llu: %s", (unsigned long long)K,
                           (unsigned long long)N, Why.c_str());
    };
    ++Counts.Tested;
    Expected<std::optional<Digest>> Ran = RunToCut(K);
    if (!Ran)
      return Fail(Ran.status().code(), Ran.status().message());
    std::optional<Digest> Got = *Ran;
    if (!Got) {
      ++Counts.Fired;
      Expected<Digest> Recovered = Recover(K);
      if (!Recovered)
        return Fail(Recovered.status().code(),
                    "unrecoverable: " + Recovered.status().message());
      Got = *Recovered;
    }
    if (*Got != Want)
      return Fail(StatusCode::Divergence,
                  "finished at the wrong state\n  want " + digestText(Want) +
                      "\n  got  " + digestText(*Got));
  }
  return Counts;
}

} // namespace gcache

#endif // GCACHE_CORE_CUTSWEEP_H
