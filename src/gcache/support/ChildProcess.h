//===- ChildProcess.h - Forked child joined by line pipes -------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one fork-and-report primitive: a forked child joined to its parent
/// by a pipe each way, carrying '\n'-terminated lines. The supervised
/// runner (core/Supervisor.h), the trace service's worker pool
/// (core/WorkerPool.h) and GcTorture's SIGKILL sweep all fork, reap and
/// read their children through it. The parent reads nonblocking, and a
/// reap first passes on what is still in the pipe, so a line written just
/// before a crash is never lost.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_CHILDPROCESS_H
#define GCACHE_SUPPORT_CHILDPROCESS_H

#include "gcache/support/Status.h"

#include <functional>
#include <string>

namespace gcache {

/// Blocking write of the whole of \p Text to \p Fd; false on error.
bool writeAllFd(int Fd, const std::string &Text);

/// Reads one '\n'-terminated line from a blocking fd; false on EOF/error.
bool readLineFd(int Fd, std::string &Line);

class ChildProcess {
public:
  using LineFn = std::function<void(const std::string &Line)>;

  ChildProcess() = default;
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;
  /// Parent: SIGKILLs and reaps a child still running. Child: no-op.
  ~ChildProcess();

  /// Flushes stdio (so buffered output is not written twice) and forks.
  /// Returns in both processes; inChild() tells them apart. IoError when a
  /// pipe or the fork fails.
  Status spawn();

  bool inChild() const { return Pid == 0; }
  /// Parent: true from spawn() until the child is reaped.
  bool running() const { return Pid > 0; }
  int pid() const { return Pid > 0 ? Pid : -1; }

  /// The pipe ends this process holds (-1 once closed): the child reads
  /// toChildFd() and writes fromChildFd(), the parent the other way round.
  int toChildFd() const { return ToChild; }
  int fromChildFd() const { return FromChild; }

  /// Parent: passes each complete line the child has written so far to
  /// \p OnLine, without blocking. False once the child's end is closed.
  bool readLines(const LineFn &OnLine);

  /// Parent: if the child has exited, passes its last lines to \p OnLine,
  /// closes the pipes, stores the wait status and returns true. Never
  /// blocks.
  bool tryReap(const LineFn &OnLine, int *RawStatus = nullptr);

  /// Parent: closes both pipes (a child blocked on one gets EOF or EPIPE)
  /// and blocks until the child exits. Returns the raw wait status, 0 when
  /// none is running.
  int wait();

  void signal(int Sig) const;

  /// Parent: reads the child's lines until it exits, so it never blocks
  /// on a full pipe. A timeout (\p TimeoutSec, 0 = none) or the parent's
  /// own cancel token tripping sends SIGTERM — the child's signal guard
  /// drains to a checkpoint and exits — and SIGKILL follows \p GraceSec
  /// later. Returns the raw wait status; \p TimedOut reports the timeout,
  /// \p Drained that the child exited on its own after the SIGTERM.
  int await(unsigned TimeoutSec, unsigned GraceSec, const LineFn &OnLine,
            bool &TimedOut, bool &Drained);

private:
  void closePipes();

  int Pid = -1; ///< Parent: the child's pid (-1 once reaped). Child: 0.
  int ToChild = -1, FromChild = -1;
  std::string LineBuf; ///< Parent: a partial line awaiting its '\n'.
};

} // namespace gcache

#endif // GCACHE_SUPPORT_CHILDPROCESS_H
