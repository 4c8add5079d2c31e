// Persistent fork-join worker pool (concurrency seam).
//
// The one owner of fork-join threads in the library: campaign cells and
// sharded-replay producer/consumers run on it. The caller is worker 0;
// the other workers are spawned once and parked between runs on a
// generation-counted mutex/condvar start barrier with a done count, so a
// run costs one wake-up per worker and never spawns a thread. The pool
// decides only which thread runs a piece of work, never what the work
// is; with one worker everything runs inline on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace syndog::util {

class WorkerPool {
 public:
  /// Spawns `workers - 1` threads (the calling thread is worker 0);
  /// workers <= 1 spawns nothing.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Calls fn(w) exactly once on every worker w in [0, workers()), all
  /// at the same time, and returns when every call has finished. Then
  /// rethrows the exception of the lowest-numbered worker that threw;
  /// the pool stays usable. Call only from the constructing thread.
  template <typename Fn>
  void run(const Fn& fn) {
    run_erased(&fn, [](const void* f, int w) {
      (*static_cast<const Fn*>(f))(w);
    });
  }

  /// Calls fn(i) once for every i in [0, count); workers claim indices
  /// off a shared counter. With one worker the indices run in ascending
  /// order on the calling thread. Exceptions propagate as from run().
  template <typename Fn>
  void for_each_index(int count, const Fn& fn) {
    alignas(64) std::atomic<int> next{0};
    run([&](int) {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    });
  }

 private:
  using Trampoline = void (*)(const void*, int);

  void run_erased(const void* fn, Trampoline call);
  void worker_loop(int worker);
  void shutdown();

  int workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Guarded by mutex_: a generation bump releases the pool for one run
  // of fn_ (or for shutdown); idle_workers_ counts threads done with it.
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  const void* fn_ = nullptr;
  Trampoline call_ = nullptr;
  int idle_workers_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< [w]: worker w's throw
  std::vector<std::thread> threads_;  ///< last: threads use all of the above
};

}  // namespace syndog::util
