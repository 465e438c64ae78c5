//===- ShardPool.cpp - Worker threads for the parallel cache bank ----------===//

#include "gcache/memsys/ShardPool.h"

#include "gcache/memsys/CacheColumn.h"
#include "gcache/support/FaultInjector.h"

#include <algorithm>

using namespace gcache;

ShardPool::ShardPool(const std::vector<CacheColumn *> &Columns,
                     unsigned ThreadCount) {
  unsigned N = std::min<unsigned>(std::max(ThreadCount, 1u),
                                  static_cast<unsigned>(Columns.size()));
  Workers.resize(N);
  for (size_t I = 0; I != Columns.size(); ++I)
    Workers[I % N].Shard.push_back(Columns[I]);
  for (Worker &W : Workers)
    Threads.emplace_back([this, &W] { workerLoop(W); });
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ShardPool::submit(std::shared_ptr<const RefBatch> Batch) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (Worker &W : Workers)
      W.Queue.push_back(Batch);
    Outstanding += Workers.size();
  }
  WorkReady.notify_all();
}

void ShardPool::drain() {
  std::exception_ptr Failure;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllIdle.wait(Lock, [this] { return Outstanding == 0; });
    std::swap(Failure, FirstFailure);
  }
  if (Failure)
    std::rethrow_exception(Failure);
}

void ShardPool::workerLoop(Worker &W) {
  for (;;) {
    std::shared_ptr<const RefBatch> Batch;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [this, &W] { return Stopping || !W.Queue.empty(); });
      if (W.Queue.empty())
        return; // Stopping and fully drained.
      Batch = std::move(W.Queue.front());
      W.Queue.pop_front();
    }
    // A worker that has already failed keeps consuming batches (so
    // Outstanding reaches zero and drain() never wedges) but discards
    // them: its shard's counters are already invalid.
    if (!W.Failed) {
      try {
        // shard-worker fault site: one hit per (batch, worker)
        // consumption, in every worker thread.
        if (faultInjector().shouldFire(FaultSite::ShardWorker))
          throwStatus(StatusCode::WorkerFailure,
                      "injected shard-worker failure (site shard-worker)");
        W.Scratch.reset(Batch.get());
        for (CacheColumn *C : W.Shard)
          C->run(*Batch, W.Scratch);
      } catch (...) {
        W.Failed = true;
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!FirstFailure)
          FirstFailure = std::current_exception();
      }
    }
    Batch.reset();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        AllIdle.notify_all();
    }
  }
}
