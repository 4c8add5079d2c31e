// Persistent fork-join worker pool (concurrency seam).
//
// The one owner of fork-join threads in the library: campaign cells and
// sharded-replay producer/consumers run on it. The caller is worker 0;
// the other workers are spawned once and wait between runs on an atomic
// generation counter: a run bumps it and the caller then waits for an
// atomic done count. Both waits spin (with a CPU pause) for up to
// kSpinBudget before parking on a mutex/condvar, so back-to-back runs,
// like the campaign's windows, cost no system call; an idle pool still
// sleeps. Spinning is enabled only when the pool has no more workers than
// the CPUs the process may run on; an oversubscribed pool parks at once.
// The pool decides only which thread runs a piece of work, never what
// the work is; with one worker everything runs inline on the caller.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace syndog::util {

class WorkerPool {
 public:
  /// How long a waiting worker (or the caller) spins before it parks.
  /// The campaign's windows take ≈40 µs of cell work and the exchange
  /// between two windows ≈0.5 µs (`campaign.exchange_s /
  /// campaign.barriers` on perfbench's campaign-spread), so a worker that
  /// finishes its cells first still catches the next window spinning.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// Spawns `workers - 1` threads (the calling thread is worker 0);
  /// workers <= 1 spawns nothing.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }
  /// Whether waits spin before parking: more than one worker, and no
  /// more than the CPUs the process may run on.
  [[nodiscard]] bool spins() const { return spin_; }

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

  /// Calls fn(i) once for every i in [0, count). Worker w runs w, w + W,
  /// w + 2W, ... (W = workers()) in ascending order, so the same index
  /// runs on the same thread on every call. With one worker the indices
  /// run in ascending order on the calling thread. Exceptions propagate
  /// as from run(); a worker that throws skips the rest of its indices.
  template <typename Fn>
  void for_each_index(int count, const Fn& fn) {
    run([&](int w) {
      for (int i = w; i < count; i += workers_) fn(i);
    });
  }

 private:
  using Trampoline = void (*)(const void*, int);

  void run_erased(const void* fn, Trampoline call);
  void worker_loop(int worker);
  void shutdown();
  /// Spins until ready() or kSpinBudget passes; returns ready()'s last
  /// value. Returns ready() at once when the pool does not spin.
  template <typename Ready>
  bool spin_until(const Ready& ready) const;

  int workers_;
  bool spin_;
  std::mutex mutex_;  ///< only for parking; the counters are atomic
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // A generation bump (by the caller, under mutex_) releases the pool
  // for one run of fn_ or for shutdown; done_ counts threads done with
  // it. fn_, call_, shutdown_ are written before the bump, errors_[w]
  // before worker w's done_ increment.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  alignas(64) std::atomic<int> done_{0};
  bool shutdown_ = false;
  const void* fn_ = nullptr;
  Trampoline call_ = nullptr;
  std::vector<std::exception_ptr> errors_;  ///< [w]: worker w's throw
  std::vector<std::thread> threads_;  ///< last: threads use all of the above
};

}  // namespace syndog::util
