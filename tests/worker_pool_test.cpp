// util::WorkerPool: the fork-join pool the campaign DES and the sharded
// replay run on (suite name is matched by the CI tsan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "syndog/util/worker_pool.hpp"

namespace syndog::util {
namespace {

TEST(WorkerPoolTest, RunCallsEveryWorkerOnceAndConcurrently) {
  for (const int n : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(n));
    WorkerPool pool(n);
    ASSERT_EQ(pool.workers(), n);
    for (int round = 0; round < 3; ++round) {
      std::vector<int> calls(static_cast<std::size_t>(n), 0);
      // Every worker must be inside run() at once, or this never opens.
      std::latch meet(n);
      pool.run([&](int w) {
        ++calls[static_cast<std::size_t>(w)];
        meet.arrive_and_wait();
      });
      for (int w = 0; w < n; ++w) {
        EXPECT_EQ(calls[static_cast<std::size_t>(w)], 1) << "worker " << w;
      }
    }
  }
}

TEST(WorkerPoolTest, ForEachIndexVisitsEachIndexExactlyOnce) {
  WorkerPool pool(4);
  for (const int count : {0, 1, 3, 5000}) {
    SCOPED_TRACE("count=" + std::to_string(count));
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    pool.for_each_index(count, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < count; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(WorkerPoolTest, OneWorkerRunsIndicesInOrderOnTheCaller) {
  for (const int n : {-3, 0, 1}) {
    WorkerPool pool(n);
    EXPECT_EQ(pool.workers(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    pool.for_each_index(6, [&](int i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
}

TEST(WorkerPoolTest, RethrowsLowestWorkerErrorAfterAllFinishAndStaysUsable) {
  WorkerPool pool(4);
  std::atomic<int> finished{0};
  try {
    pool.run([&](int w) {
      if (w == 1 || w == 3) {
        throw std::runtime_error("worker " + std::to_string(w));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "run() swallowed the workers' exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "worker 1");
    EXPECT_EQ(finished.load(), 2);  // workers 0 and 2 ran to completion
  }

  // The caller's own exception is worker 0's and wins.
  EXPECT_THROW(pool.run([](int w) {
    if (w == 0) throw std::logic_error("caller");
    if (w == 2) throw std::runtime_error("worker 2");
  }),
               std::logic_error);

  // for_each_index propagates too, and the pool runs again afterwards.
  EXPECT_THROW(pool.for_each_index(100,
                                   [](int i) {
                                     if (i == 37) {
                                       throw std::out_of_range("37");
                                     }
                                   }),
               std::out_of_range);
  std::latch meet(4);
  pool.run([&](int) { meet.arrive_and_wait(); });
  std::atomic<int> sum{0};
  pool.for_each_index(10, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

// Workers for the spin-path tests: 2 to 4, and no more than the CPUs
// when there are at least two, so the pool spins.
int spinning_workers() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus, 2, 4);
}

// One run: every worker runs once and sees the caller's pre-run write.
// Returns false (after recording a failure) on the first violation.
bool run_checked(WorkerPool& pool, int round, std::vector<int>& calls,
                 std::vector<int>& seen, const int& token) {
  pool.run([&](int w) {
    ++calls[static_cast<std::size_t>(w)];
    seen[static_cast<std::size_t>(w)] = token;
  });
  for (int w = 0; w < pool.workers(); ++w) {
    const auto slot = static_cast<std::size_t>(w);
    if (calls[slot] != round + 1 || seen[slot] != round) {
      ADD_FAILURE() << "round " << round << " worker " << w << ": calls "
                    << calls[slot] << ", saw token " << seen[slot];
      return false;
    }
  }
  return true;
}

TEST(WorkerPoolTest, BackToBackRunsOnTheSpinPath) {
  WorkerPool pool(spinning_workers());
  if (!pool.spins()) GTEST_SKIP() << "process may run on one CPU only";
  const auto n = static_cast<std::size_t>(pool.workers());
  std::vector<int> calls(n, 0);
  std::vector<int> seen(n, -1);
  int token = -1;
  for (int round = 0; round < 100'000; ++round) {
    token = round;  // plain write; run() must publish it to every worker
    if (!run_checked(pool, round, calls, seen, token)) break;
  }
}

TEST(WorkerPoolTest, RunsSeparatedBySleepsTakeThePark) {
  WorkerPool pool(spinning_workers());
  const auto n = static_cast<std::size_t>(pool.workers());
  std::vector<int> calls(n, 0);
  std::vector<int> seen(n, -1);
  int token = -1;
  for (int round = 0; round < 20; ++round) {
    // Far past the spin budget: every worker has parked by now.
    std::this_thread::sleep_for(WorkerPool::kSpinBudget * 40);
    token = round;
    if (!run_checked(pool, round, calls, seen, token)) break;
  }
}

TEST(WorkerPoolTest, WorkerExceptionOnTheSpinPath) {
  WorkerPool pool(spinning_workers());
  const int n = pool.workers();
  std::vector<int> calls(static_cast<std::size_t>(n), 0);
  for (int round = 0; round < 20'000; ++round) {
    const int thrower = round % 3 == 0 ? round % n : -1;
    try {
      pool.run([&](int w) {
        ++calls[static_cast<std::size_t>(w)];
        if (w == thrower) throw std::runtime_error(std::to_string(w));
      });
      if (thrower >= 0) {
        ADD_FAILURE() << "round " << round << ": run() swallowed a throw";
        break;
      }
    } catch (const std::runtime_error& e) {
      if (e.what() != std::to_string(thrower)) {
        ADD_FAILURE() << "round " << round << ": caught " << e.what();
        break;
      }
    }
  }
  // A throw never cost another worker its call.
  for (int w = 0; w < n; ++w) {
    EXPECT_EQ(calls[static_cast<std::size_t>(w)], 20'000) << "worker " << w;
  }
}

TEST(WorkerPoolTest, OversubscribedPoolParksAndStaysCorrect) {
  const int cpus =
      std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
  WorkerPool pool(2 * cpus);
  EXPECT_FALSE(pool.spins());
  const auto n = static_cast<std::size_t>(pool.workers());
  std::vector<int> calls(n, 0);
  std::vector<int> seen(n, -1);
  int token = -1;
  for (int round = 0; round < 2'000; ++round) {
    token = round;
    if (!run_checked(pool, round, calls, seen, token)) break;
  }
}

TEST(WorkerPoolTest, ForEachIndexStridesIndicesOverFixedThreads) {
  for (const int n : {2, 3, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(n));
    WorkerPool pool(n);
    constexpr int kCount = 101;
    std::vector<std::thread::id> first(kCount);
    for (int call = 0; call < 2; ++call) {
      std::mutex mutex;
      std::map<std::thread::id, std::vector<int>> order;
      std::vector<std::thread::id> owner(kCount);
      pool.for_each_index(kCount, [&](int i) {
        owner[static_cast<std::size_t>(i)] = std::this_thread::get_id();
        const std::lock_guard<std::mutex> lock(mutex);
        order[std::this_thread::get_id()].push_back(i);
      });
      EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
      for (const auto& [thread, indices] : order) {
        EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
        for (const int i : indices) {
          EXPECT_EQ(i % n, indices.front() % n) << "index " << i;
        }
      }
      if (call == 0) {
        first = owner;
      } else {
        EXPECT_EQ(owner, first) << "an index moved to another thread";
      }
    }
  }
}

}  // namespace
}  // namespace syndog::util
