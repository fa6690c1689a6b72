#pragma once

// Fork-join thread pool with a parallel_for primitive.
//
// The clique engine's fiber scheduler (src/clique/scheduler.cpp,
// ExecutionBackend::kSharded) hosts its superstep workers here: one
// process-wide pool sized by hardware_concurrency, onto which each
// Engine::run dispatches a worker team of min(pool, shards) threads, each
// resuming the node fibers of the contiguous id shards it owns. On a single-core host the pool degrades gracefully to sequential
// execution. Results are independent of the worker count because the
// scheduler confines shared mutation to its serial leader phase — the
// engine's collectives are the only synchronisation points.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ccq {

class ThreadPool {
 public:
  /// threads == 0 picks CCQ_POOL_THREADS from the environment if set, else
  /// hardware_concurrency (min 1). The override exists so single-core hosts
  /// can still exercise the multi-worker scheduler paths (oversubscription
  /// forces preemption at arbitrary points, which is exactly what the
  /// race-sensitive code wants stressed).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool; blocks until all done.
  /// Enqueues min(count, size()) tasks that claim indices in order, so a
  /// task that blocks inside fn (a scheduler worker) holds one thread.
  /// Exceptions from tasks are captured and the first one is rethrown.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace ccq
