// A small fixed-size worker pool with a blocking parallel-for.
//
// Built for the verification workloads in this repo (the exhaustive
// checker's per-successor expansion and per-state signature passes,
// sepcheck --jobs): the unit of work is
// a pure function of index `i` writing only to its own output slot, and the
// caller needs a barrier at the end. Determinism is the callers'
// responsibility and their design: workers compute results into per-index
// slots, and the caller merges them in canonical index order, so the report
// produced is independent of scheduling (see src/core/exhaustive.cpp and
// docs/PERFORMANCE.md).
//
// A pool of size 1 spawns no threads and runs bodies inline, so serial
// configurations stay genuinely single-threaded.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sep {

class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread;
  // 0 means HardwareThreads(). The pool spawns threads - 1 workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes body(i) for every i in [0, n), in unspecified order on
  // unspecified threads (including the caller), and returns once all calls
  // completed. Not reentrant: body must not call ParallelFor on this pool.
  // Bodies must not throw.
  //
  // With no workers or a single iteration the loop runs inline on the
  // caller: no std::function is materialized, no task is posted and no
  // condition-variable round trip happens, so single-thread hosts pay plain
  // loop cost (BENCH_3's exhaustive_parallel_speedup 0.96 was exactly this
  // overhead). Only the pooled path type-erases the body.
  template <typename Body>
  void ParallelFor(std::size_t n, Body&& body) {
    if (n == 0) {
      return;
    }
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        body(i);
      }
      return;
    }
    const std::function<void(std::size_t)> fn = std::ref(body);
    ParallelForPooled(n, fn);
  }

  // Grained variant: workers claim [i, i+grain) index blocks per atomic
  // fetch instead of one index at a time, cutting contention on the shared
  // cursor when bodies are cheap. Iteration order within a block is
  // ascending; block assignment is unspecified. grain == 1 is exactly the
  // plain overload.
  template <typename Body>
  void ParallelFor(std::size_t n, std::size_t grain, Body&& body) {
    if (grain <= 1 || workers_.empty() || n <= grain) {
      ParallelFor(n, body);
      return;
    }
    const std::size_t blocks = (n + grain - 1) / grain;
    ParallelFor(blocks, [&](std::size_t block) {
      const std::size_t begin = block * grain;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      for (std::size_t i = begin; i < end; ++i) {
        body(i);
      }
    });
  }

  // Batch size that adapts to both pool width and problem width: small
  // enough that every thread gets several blocks (load balance against
  // uneven bodies), large enough to amortize the shared cursor. The
  // exhaustive checker's loops range from a few successors of one state to
  // hundreds of thousands of states, so no fixed grain suits both.
  static std::size_t AdaptiveGrain(std::size_t n, int threads) {
    if (threads <= 1 || n == 0) {
      return n == 0 ? 1 : n;
    }
    // Aim for ~4 blocks per thread, clamped to [1, 1024].
    std::size_t grain = n / (static_cast<std::size_t>(threads) * 4);
    if (grain < 1) {
      grain = 1;
    }
    if (grain > 1024) {
      grain = 1024;
    }
    return grain;
  }

  // Index of the calling thread within this pool's parallelism: 0 for the
  // thread that owns the pool (and runs inline / participates in jobs),
  // 1..workers for pool workers. Callers use it to pick a scratch slot that
  // is theirs for the duration of one ParallelFor body.
  static int CurrentWorkerIndex() { return worker_index_; }

  static int HardwareThreads();

 private:
  void ParallelForPooled(std::size_t n, const std::function<void(std::size_t)>& body);
  void WorkerMain(int index);

  static thread_local int worker_index_;

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals a new job epoch or shutdown
  std::condition_variable done_cv_;  // signals workers drained from a job
  std::uint64_t epoch_ = 0;          // bumped per ParallelFor (guarded by mu_)
  const std::function<void(std::size_t)>* body_ = nullptr;  // guarded by mu_
  std::size_t n_ = 0;                                       // guarded by mu_
  std::atomic<std::size_t> next_{0};
  int active_ = 0;  // workers still inside the current job (guarded by mu_)
  bool stop_ = false;
};

}  // namespace sep

#endif  // SRC_BASE_THREAD_POOL_H_
