#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include <pthread.h>

#if defined(__linux__)
#include <sched.h>
#endif

namespace leva {

namespace {

// The process-wide pool behind ThreadPool::Shared(). A forked child inherits
// the pool object but none of its workers, and its mutex and condition
// variable may still be held or waited on by parent threads; the child's
// first Submit would wait forever. The atfork child handler abandons that
// pool (parked in `abandoned_pool`, never joined or destroyed) so that the
// child's next Shared() builds its own.
std::atomic<ThreadPool*> shared_pool{nullptr};
ThreadPool* abandoned_pool = nullptr;

void AbandonSharedPoolInChild() {
  abandoned_pool = shared_pool.exchange(nullptr, std::memory_order_relaxed);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::HardwareConcurrency() {
#if defined(__linux__)
  // CPUs this process may run on: a taskset/cgroup-pinned process must not
  // size its pool by the host's core count.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::Shared() {
  [[maybe_unused]] static const int registered =
      pthread_atfork(nullptr, nullptr, &AbandonSharedPoolInChild);
  ThreadPool* pool = shared_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  auto* fresh = new ThreadPool(std::max<size_t>(2, HardwareConcurrency()));
  if (shared_pool.compare_exchange_strong(pool, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;  // another thread built the pool first
  return *pool;
}

size_t ResolveThreads(size_t requested) {
  return requested == 0 ? ThreadPool::HardwareConcurrency() : requested;
}

namespace {

// Completion state shared between the caller and borrowed pool workers.
struct ForState {
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  size_t chunks = 0;
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception, guarded by mu
};

}  // namespace

void ParallelFor(size_t threads, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  const size_t count = end - begin;
  grain = std::max<size_t>(1, grain);
  const size_t chunks = (count + grain - 1) / grain;
  threads = std::max<size_t>(1, ResolveThreads(threads));

  // The chunk layout below is identical for every thread count; only the
  // assignment of chunks to threads varies, and chunks are independent.
  if (threads == 1 || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) {
      const size_t b = begin + c * grain;
      fn(b, std::min(end, b + grain));
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->chunks = chunks;
  auto work = [state, begin, end, grain, &fn] {
    for (;;) {
      const size_t c = state->next_chunk.fetch_add(1);
      if (c >= state->chunks) return;
      const size_t b = begin + c * grain;
      try {
        fn(b, std::min(end, b + grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->chunks_done.fetch_add(1) + 1 == state->chunks) {
        // Notify under the lock: the caller checks the count and blocks
        // while holding it, so an unlocked notify could land in between
        // and be lost.
        std::lock_guard<std::mutex> lock(state->mu);
        state->done_cv.notify_all();
      }
    }
  };

  const size_t helpers = std::min(threads, chunks) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    // Helpers copy `state` but reference `fn`; the caller blocks below until
    // every chunk completes, so `fn` outlives them. A helper that only gets
    // scheduled afterwards finds no chunk left and exits immediately.
    ThreadPool::Shared().Submit(work);
  }
  work();  // the caller drains chunks too — no idle waiting on a busy pool

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] {
    return state->chunks_done.load() == state->chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

uint64_t DeriveStreamSeed(uint64_t seed, uint64_t domain, uint64_t index) {
  auto mix = [](uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  return mix(mix(mix(seed) ^ domain) ^ index);
}

}  // namespace leva
