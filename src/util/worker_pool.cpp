#include "syndog/util/worker_pool.hpp"

#include <algorithm>

namespace syndog::util {

WorkerPool::WorkerPool(int workers)
    : workers_(std::max(workers, 1)),
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
    ++generation_;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [this, seen] { return generation_ != seen; });
      seen = generation_;
      if (shutdown_) return;
    }
    // fn_/call_ stay put until every worker has reported done.
    try {
      call_(fn_, worker);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++idle_workers_;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::run_erased(const void* fn, Trampoline call) {
  if (threads_.empty()) {
    call(fn, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = fn;
    call_ = call;
    idle_workers_ = 0;
    ++generation_;
  }
  start_cv_.notify_all();
  try {
    call(fn, 0);  // the caller is worker 0
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return idle_workers_ == static_cast<int>(threads_.size());
    });
  }
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (error && !first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace syndog::util
