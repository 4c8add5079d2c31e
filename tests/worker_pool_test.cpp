// util::WorkerPool: the fork-join pool the campaign DES and the sharded
// replay run on (suite name is matched by the CI tsan job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
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

}  // namespace
}  // namespace syndog::util
