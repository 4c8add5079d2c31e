#include "syndog/util/worker_pool.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace syndog::util {
namespace {

/// CPUs this process may run on (its affinity mask), at least 1.
int available_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(CPU_COUNT(&set), 1);
  }
#endif
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

WorkerPool::WorkerPool(int workers)
    : workers_(std::max(workers, 1)),
      spin_(workers_ > 1 && workers_ <= available_cpus()),
      errors_(static_cast<std::size_t>(workers_)) {
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  try {
    for (int w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    shutdown();  // join whatever did start before the spawn failed
    throw;
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

template <typename Ready>
bool WorkerPool::spin_until(const Ready& ready) const {
  if (!spin_) return ready();
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_pause();
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}

void WorkerPool::worker_loop(int worker) {
  const int threads = workers_ - 1;
  std::uint64_t seen = 0;
  for (;;) {
    const auto started = [this, seen] {
      return generation_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_until(started)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, started);
    }
    seen = generation_.load(std::memory_order_acquire);
    if (shutdown_) return;
    // fn_/call_ stay put until every worker has reported done.
    try {
      call_(fn_, worker);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads) {
      // The caller may have stopped spinning. The increment was made
      // outside mutex_, so lock it before notifying: a caller that
      // checked done_ under the mutex is then already waiting, and one
      // that checks later sees the increment.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_one();
    }
  }
}

void WorkerPool::run_erased(const void* fn, Trampoline call) {
  if (threads_.empty()) {
    call(fn, 0);
    return;
  }
  fn_ = fn;
  call_ = call;
  done_.store(0, std::memory_order_relaxed);
  {
    // Under the mutex so a worker between its predicate check and its
    // wait cannot miss the notify.
    std::lock_guard<std::mutex> lock(mutex_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  try {
    call(fn, 0);  // the caller is worker 0
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  const int threads = static_cast<int>(threads_.size());
  const auto finished = [this, threads] {
    return done_.load(std::memory_order_acquire) == threads;
  };
  if (!spin_until(finished)) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, finished);
  }
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (error && !first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace syndog::util
