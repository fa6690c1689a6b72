#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "util/env.hpp"

namespace ccq {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    // Strict parse: "8x" or garbage must fail here, not silently run some
    // other worker count (1024 is far beyond any useful oversubscription).
    if (const auto env = parse_env_uint("CCQ_POOL_THREADS", 1, 1024)) {
      threads = static_cast<std::size_t>(*env);
    }
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || workers_.size() == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done_chunks{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mu;
  };
  auto shared = std::make_shared<Shared>();
  // One task per index at most: a task beyond `count` would find no index
  // to claim.
  const std::size_t chunks = std::min(count, workers_.size());

  auto chunk_fn = [shared, count, &fn, chunks] {
    std::size_t i;
    while ((i = shared->next.fetch_add(1)) < count) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(shared->error_mu);
        if (!shared->error) shared->error = std::current_exception();
      }
    }
    if (shared->done_chunks.fetch_add(1) + 1 == chunks) {
      std::lock_guard<std::mutex> lk(shared->done_mu);
      shared->done_cv.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t c = 0; c < chunks; ++c) tasks_.push(chunk_fn);
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lk(shared->done_mu);
  shared->done_cv.wait(lk, [&] {
    return shared->done_chunks.load() == chunks;
  });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace ccq
