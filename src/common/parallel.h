#ifndef LEVA_COMMON_PARALLEL_H_
#define LEVA_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace leva {

/// Fixed-size worker pool shared by every parallel hot path (walks, Word2Vec,
/// SVD matmuls, forests, grid search). Tasks are plain closures; ParallelFor
/// below is the structured entry point almost all callers want.
///
/// Determinism contract: the pool never influences *what* is computed, only
/// *where*. Work is partitioned into chunks whose boundaries depend on the
/// range and grain alone — never on the thread count — and per-task randomness
/// comes from counter-based RNG streams (see StreamRng), so the same seed
/// produces bit-identical results at any thread count.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn` for execution on some worker. Never blocks.
  void Submit(std::function<void()> fn);

  /// CPUs in the process's affinity mask (sched_getaffinity), so a pinned
  /// process sees only the CPUs it may use; std::thread::hardware_concurrency()
  /// where that is unavailable. Clamped to >= 1.
  static size_t HardwareConcurrency();

  /// Lazily-created process-wide pool used by ParallelFor. Sized to at least
  /// two workers so parallel code paths genuinely interleave even on
  /// single-core machines (which is what the TSan smoke tests rely on).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Resolves a user-facing thread-count setting: 0 means "use every CPU this
/// process may run on" (HardwareConcurrency), anything else is taken
/// literally.
size_t ResolveThreads(size_t requested);

/// Runs `fn(chunk_begin, chunk_end)` over [begin, end) split into chunks of at
/// most `grain` indices. Chunk boundaries are a pure function of (begin, end,
/// grain) so any chunk-local state is reproducible at every thread count; with
/// `threads` <= 1 the chunks run inline on the caller. The caller always
/// participates, so at most `threads - 1` pool workers are borrowed. The first
/// exception thrown by `fn` is rethrown on the caller after all in-flight
/// chunks drain.
void ParallelFor(size_t threads, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Domain tags keeping the counter-based streams of unrelated components
/// disjoint even when they share a pipeline seed and index range.
namespace rngdomain {
constexpr uint64_t kWalk = 0xA11CE001;
constexpr uint64_t kWalkShuffle = 0xA11CE002;
constexpr uint64_t kForest = 0xA11CE004;
constexpr uint64_t kGridSearch = 0xA11CE005;
constexpr uint64_t kWord2VecDet = 0xA11CE006;
constexpr uint64_t kDatagenGraph = 0xA11CE007;
}  // namespace rngdomain

/// Derives an independent 64-bit seed for task `index` of `domain` from a
/// base seed, via chained SplitMix64 finalizers. Pure function: the stream for
/// (seed, domain, index) never depends on how many tasks run concurrently.
uint64_t DeriveStreamSeed(uint64_t seed, uint64_t domain, uint64_t index);

/// Convenience: an Rng positioned at the start of stream (seed, domain, index).
inline Rng StreamRng(uint64_t seed, uint64_t domain, uint64_t index) {
  return Rng(DeriveStreamSeed(seed, domain, index));
}

}  // namespace leva

#endif  // LEVA_COMMON_PARALLEL_H_
