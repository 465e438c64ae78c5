//===- ChildProcess.cpp - Forked child joined by line pipes ---------------===//

#include "gcache/support/ChildProcess.h"

#include "gcache/support/Budget.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gcache;

bool gcache::writeAllFd(int Fd, const std::string &Text) {
  size_t Sent = 0;
  while (Sent < Text.size()) {
    ssize_t N = write(Fd, Text.data() + Sent, Text.size() - Sent);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool gcache::readLineFd(int Fd, std::string &Line) {
  Line.clear();
  char C;
  for (;;) {
    ssize_t N = read(Fd, &C, 1);
    if (N == 1) {
      if (C == '\n')
        return true;
      Line += C;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
}

ChildProcess::~ChildProcess() {
  if (inChild())
    return;
  signal(SIGKILL);
  wait();
}

void ChildProcess::closePipes() {
  for (int *Fd : {&ToChild, &FromChild})
    if (*Fd >= 0) {
      close(*Fd);
      *Fd = -1;
    }
  LineBuf.clear();
}

Status ChildProcess::spawn() {
  int Down[2] = {-1, -1}, Up[2] = {-1, -1};
  pid_t Child = -1;
  if (pipe(Down) == 0 && pipe(Up) == 0) {
    std::fflush(nullptr);
    Child = fork();
  }
  if (Child < 0) {
    int Err = errno;
    for (int Fd : {Down[0], Down[1], Up[0], Up[1]})
      if (Fd >= 0)
        close(Fd);
    return Status::failf(StatusCode::IoError, "cannot start a child: %s",
                         std::strerror(Err));
  }
  bool IsChild = Child == 0;
  close(IsChild ? Down[1] : Down[0]);
  close(IsChild ? Up[0] : Up[1]);
  Pid = Child;
  ToChild = IsChild ? Down[0] : Down[1];
  FromChild = IsChild ? Up[1] : Up[0];
  LineBuf.clear();
  if (!IsChild) {
    int Flags = fcntl(FromChild, F_GETFL, 0);
    fcntl(FromChild, F_SETFL, Flags | O_NONBLOCK);
  }
  return Status();
}

bool ChildProcess::readLines(const LineFn &OnLine) {
  if (FromChild < 0)
    return false;
  char Buf[4096];
  ssize_t N;
  while ((N = read(FromChild, Buf, sizeof(Buf))) > 0 ||
         (N < 0 && errno == EINTR))
    LineBuf.append(Buf, N > 0 ? static_cast<size_t>(N) : 0);
  // Drained for now, or 0 / a hard error: the child's end is gone.
  bool Open = N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  size_t Pos = 0, Nl;
  while ((Nl = LineBuf.find('\n', Pos)) != std::string::npos) {
    OnLine(LineBuf.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  LineBuf.erase(0, Pos);
  return Open;
}

bool ChildProcess::tryReap(const LineFn &OnLine, int *RawStatus) {
  int St = 0;
  if (Pid <= 0 || waitpid(Pid, &St, WNOHANG) != Pid)
    return false;
  Pid = -1;
  readLines(OnLine);
  closePipes();
  if (RawStatus)
    *RawStatus = St;
  return true;
}

int ChildProcess::wait() {
  closePipes();
  int St = 0;
  if (Pid > 0)
    while (waitpid(Pid, &St, 0) < 0 && errno == EINTR)
      ;
  Pid = -1;
  return St;
}

void ChildProcess::signal(int Sig) const {
  if (Pid > 0)
    kill(Pid, Sig);
}

int ChildProcess::await(unsigned TimeoutSec, unsigned GraceSec,
                        const LineFn &OnLine, bool &TimedOut,
                        bool &Drained) {
  using Clock = std::chrono::steady_clock;
  auto Deadline = TimeoutSec ? Clock::now() + std::chrono::seconds(TimeoutSec)
                             : Clock::time_point::max();
  auto KillAt = Clock::time_point::max();
  TimedOut = Drained = false;
  bool TermSent = false;
  for (int RawStatus = 0;;) {
    pollfd P = {FromChild, POLLIN, 0};
    (void)poll(&P, FromChild >= 0 ? 1 : 0, 20);
    if (!readLines(OnLine) && FromChild >= 0) {
      close(FromChild); // At EOF: from here on the poll only paces.
      FromChild = -1;
    }
    if (tryReap(OnLine, &RawStatus))
      return RawStatus;
    auto Now = Clock::now();
    if (!TermSent && (Now >= Deadline || cancelToken().requested())) {
      TimedOut = Now >= Deadline;
      signal(SIGTERM);
      TermSent = Drained = true;
      KillAt = Now + std::chrono::seconds(GraceSec);
    }
    if (Drained && Now >= KillAt) {
      signal(SIGKILL); // It ignored the SIGTERM: it did not drain.
      Drained = false;
    }
  }
}
