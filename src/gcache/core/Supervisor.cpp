//===- Supervisor.cpp - Supervised experiment runner -----------------------===//

#include "gcache/core/Supervisor.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/support/ChildProcess.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Vfs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gcache;

namespace {

/// One restart event for the manifest.
struct LaunchEvent {
  unsigned Launch;
  std::string Cause; ///< "exit 75", "signal 11", "timeout", ...
  std::string Unit;  ///< Attributed unit, or empty.
};

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

/// One unit's reported outcome.
struct UnitRecord {
  std::string Name;
  std::string Outcome;
  std::string Coverage;
  std::string Note;
};

/// Folds one `outcome` report (name \t outcome \t coverage \t note) into
/// \p Units: the last report per unit wins, first-seen order is kept.
void recordOutcome(std::vector<UnitRecord> &Units, const std::string &Line) {
  UnitRecord Rec;
  std::string *Fields[4] = {&Rec.Name, &Rec.Outcome, &Rec.Coverage,
                            &Rec.Note};
  size_t FieldIdx = 0;
  for (char C : Line) {
    if (C == '\t' && FieldIdx + 1 < 4)
      ++FieldIdx;
    else
      *Fields[FieldIdx] += C;
  }
  if (Rec.Name.empty() || Rec.Outcome.empty())
    return;
  auto It = std::find_if(Units.begin(), Units.end(), [&](const UnitRecord &U) {
    return U.Name == Rec.Name;
  });
  if (It != Units.end())
    *It = Rec;
  else
    Units.push_back(Rec);
}

/// The machine-readable run manifest: what the supervisor observed and how
/// the run ended.
void writeManifest(const std::string &Dir, int ExitCode, unsigned Launches,
                   const char *Result, const std::vector<UnitRecord> &Units,
                   const std::vector<LaunchEvent> &Events,
                   const std::vector<std::string> &Denied) {
  std::string J = "{\n";
  J += "  \"result\": \"" + std::string(Result) + "\",\n";
  J += "  \"exit_code\": " + std::to_string(ExitCode) + ",\n";
  J += "  \"launches\": " + std::to_string(Launches) + ",\n";
  J += "  \"units\": [\n";
  for (size_t I = 0; I != Units.size(); ++I) {
    const UnitRecord &U = Units[I];
    // Coverage must stay a bare JSON number; re-format through strtod so
    // a damaged report line cannot produce invalid JSON.
    char CovBuf[32];
    char *End = nullptr;
    double Cov = std::strtod(U.Coverage.c_str(), &End);
    if (U.Coverage.empty() || End == U.Coverage.c_str())
      Cov = -1;
    std::snprintf(CovBuf, sizeof(CovBuf), "%.6g", Cov);
    J += "    {\"name\": \"" + jsonEscape(U.Name) + "\", \"outcome\": \"" +
         jsonEscape(U.Outcome) + "\", \"coverage\": " + CovBuf +
         ", \"note\": \"" + jsonEscape(U.Note) + "\"}";
    J += I + 1 != Units.size() ? ",\n" : "\n";
  }
  J += "  ],\n";
  J += "  \"restarts\": [\n";
  for (size_t I = 0; I != Events.size(); ++I) {
    const LaunchEvent &E = Events[I];
    J += "    {\"launch\": " + std::to_string(E.Launch) + ", \"cause\": \"" +
         jsonEscape(E.Cause) + "\", \"unit\": \"" + jsonEscape(E.Unit) +
         "\"}";
    J += I + 1 != Events.size() ? ",\n" : "\n";
  }
  J += "  ],\n";
  J += "  \"denied_units\": [";
  for (size_t I = 0; I != Denied.size(); ++I) {
    J += "\"" + jsonEscape(Denied[I]) + "\"";
    if (I + 1 != Denied.size())
      J += ", ";
  }
  J += "]\n}\n";

  // Atomic tmp+fsync+rename so a crash mid-write never leaves a torn
  // manifest; a failure is surfaced (with errno and path) rather than
  // silently dropping the run's outcome record.
  std::string Path = Dir + "/manifest.json";
  Status S = vfs().writeFileAtomic(Path, J.data(), J.size());
  if (!S.ok())
    std::fprintf(stderr, "gcache: failed to write manifest: %s\n",
                 S.message().c_str());
}

} // namespace

SuperviseOutcome gcache::superviseLoop(const SupervisorOptions &Opts) {
  const std::string &Dir = Opts.CheckpointDir;
  (void)vfs().mkdir(Dir); // may already exist
  // Unit snapshots are deliberately kept — they are the resume value.
  // Half-written *.tmp snapshots from a previous kill are swept: the
  // atomic rename protocol means they are never authoritative.
  sweepStaleTmpFiles(Dir);

  // Denials live in the process-global context, so every child forked
  // from here on inherits the current list; a new run starts with none.
  std::vector<std::string> &Denied = checkpointContext().DeniedUnits;
  Denied.clear();
  std::map<std::string, unsigned> Attempts;
  std::vector<UnitRecord> Units;
  std::vector<LaunchEvent> Events;
  unsigned Launches = 0;
  unsigned MaxLaunches =
      Opts.MaxLaunches ? Opts.MaxLaunches : (Opts.MaxRetries + 2) * 8;
  unsigned BackoffMs = Opts.BackoffMs;
  auto Finish = [&](int Code, const char *Result) -> SuperviseOutcome {
    writeManifest(Dir, Code, Launches, Result, Units, Events, Denied);
    return {false, Code};
  };

  for (;;) {
    ++Launches;
    ChildProcess Child;
    if (!Child.spawn().ok())
      return Finish(70, "fork-failed");
    if (Child.inChild()) {
      checkpointContext().ReportFd = Child.fromChildFd();
      return {true, 0};
    }

    std::string Unit; // The unit this launch is running, from its reports.
    auto OnLine = [&](const std::string &Line) {
      if (Line.rfind("unit ", 0) == 0) {
        Unit = Line.substr(5);
      } else if (Line.rfind("outcome ", 0) == 0) {
        recordOutcome(Units, Line.substr(8));
        Unit.clear();
      }
    };
    bool TimedOut = false;
    bool Drained = false;
    int RawStatus =
        Child.await(Opts.TimeoutSec, Opts.GraceSec, OnLine, TimedOut, Drained);

    if (WIFEXITED(RawStatus) && (!TimedOut || Drained)) {
      int Code = WEXITSTATUS(RawStatus);
      if (Code == 0 || Code == 1 || Code == 3) {
        // A child that drained on the timeout's SIGTERM ended the sweep
        // itself: its partial units are reported as partial-deadline,
        // not charged as a crash.
        if (TimedOut)
          Events.push_back({Launches, "timeout (drained)", Unit});
        return Finish(Code, Code == 3 ? "partial" : "completed");
      }
      if (Code == 2) // Bad flags are deterministic; retrying cannot help.
        return Finish(2, "bad-flags");
    }

    // Abnormal end: fast-abort, crash signal, timeout, or an unexpected
    // exit code. Charge it to the unit the child last reported starting.
    std::string Cause;
    if (TimedOut)
      Cause = "timeout";
    else if (WIFSIGNALED(RawStatus))
      Cause = "signal " + std::to_string(WTERMSIG(RawStatus));
    else
      Cause = "exit " + std::to_string(WEXITSTATUS(RawStatus));
    Events.push_back({Launches, Cause, Unit});

    unsigned &UnitAttempts = Attempts[Unit.empty() ? "<unknown>" : Unit];
    ++UnitAttempts;
    if (!Unit.empty() && UnitAttempts > Opts.MaxRetries &&
        std::find(Denied.begin(), Denied.end(), Unit) == Denied.end()) {
      // Out of retries: the next child marks this unit failed and moves
      // on instead of crashing on it again.
      Denied.push_back(Unit);
    }
    if (Launches >= MaxLaunches)
      return Finish(70, "crash-loop");

    // Children are forked from this image: a one-shot injected fault that
    // already fired must not re-arm in every retry, and neither should the
    // environment re-introduce it.
    faultInjector().disarm();
    unsetenv("GCACHE_FAULT");

    std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
    BackoffMs = std::min(BackoffMs * 2, 5000u);
  }
}

int gcache::runSupervised(const SupervisorOptions &Opts,
                          const std::function<int()> &Body) {
  SuperviseOutcome Outcome = superviseLoop(Opts);
  if (Outcome.InChild)
    _exit(Body());
  return Outcome.ExitCode;
}

void gcache::reportUnitStart(const std::string &Unit) {
  int Fd = checkpointContext().ReportFd;
  if (Fd >= 0)
    (void)writeAllFd(Fd, "unit " + Unit + "\n");
}

void gcache::reportUnitOutcome(const std::string &Unit, const char *Outcome,
                               double Coverage, const std::string &Note) {
  int Fd = checkpointContext().ReportFd;
  if (Fd < 0)
    return;
  // Tabs and newlines delimit the report; scrub them out of the free text.
  std::string CleanNote = Note;
  for (char &C : CleanNote)
    if (C == '\t' || C == '\n')
      C = ' ';
  char Cov[32];
  std::snprintf(Cov, sizeof(Cov), "%.6g", Coverage);
  (void)writeAllFd(Fd, "outcome " + Unit + "\t" + Outcome + "\t" + Cov +
                           "\t" + CleanNote + "\n");
}
