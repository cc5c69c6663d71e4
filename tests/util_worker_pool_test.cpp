// The persistent worker pool behind the arena provider and the parallel
// betweenness backends: the caller is participant 0, a worker runs a job at
// most once and only while the caller's share has not returned, the same
// threads serve every run, exceptions reach the caller, and a nested run is
// refused instead of deadlocking.

#include "util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.h"

namespace lcg {
namespace {

/// pool.run(fn), with the caller's share holding the run open until every
/// worker has joined, so that fn runs on every participant.
void run_everyone(worker_pool& pool,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> joined{0};
  pool.run([&](std::size_t i) {
    ++joined;
    while (i == 0 && joined.load() < pool.size()) std::this_thread::yield();
    fn(i);
  });
}

TEST(WorkerPool, EveryParticipantJoinsAnOpenRunOnceAndTheCallerIsZero) {
  for (const std::size_t workers : {0, 1, 3, 7}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    worker_pool pool(workers);
    ASSERT_EQ(pool.size(), workers + 1);
    std::vector<std::atomic<int>> calls(pool.size());
    std::thread::id caller_of_zero;
    run_everyone(pool, [&](std::size_t i) {
      ++calls[i];
      if (i == 0) caller_of_zero = std::this_thread::get_id();
    });
    for (const auto& c : calls) EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(caller_of_zero, std::this_thread::get_id());
  }
}

TEST(WorkerPool, LateWorkersSkipAClosedRun) {
  // A caller whose share finishes the whole job returns without waiting
  // for workers that had not joined yet, and those never run it.
  worker_pool pool(3);
  for (int run = 0; run < 200; ++run) {
    std::atomic<int> calls{0};
    std::atomic<bool> closed{false};
    std::atomic<bool> ran_after_close{false};
    pool.run([&](std::size_t i) {
      ++calls;
      if (i == 0) return;
      if (closed.load()) ran_after_close = true;
    });
    closed = true;
    EXPECT_GE(calls.load(), 1);
    EXPECT_FALSE(ran_after_close.load());
  }
}

TEST(WorkerPool, ManyRunsShareOneSetOfThreadsAndSeeEveryWrite) {
  // A cursor job as the arena uses it: participants pull items until the
  // list is exhausted. Every item is done exactly once per run, the caller
  // sees every write after run() returns, and no run starts new threads.
  worker_pool pool(3);
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  for (int run = 0; run < 2000; ++run) {
    std::vector<int> done(64, 0);
    std::atomic<std::size_t> cursor{0};
    pool.run([&](std::size_t) {
      {
        const std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      }
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= done.size()) return;
        done[i] += run + 1;
      }
    });
    for (const int d : done) ASSERT_EQ(d, run + 1);
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}

TEST(WorkerPool, RethrowsTheFirstExceptionAndStaysUsable) {
  worker_pool pool(2);
  EXPECT_THROW(run_everyone(pool,
                            [](std::size_t i) {
                              if (i == 2) throw std::runtime_error("worker");
                            }),
               std::runtime_error);
  EXPECT_THROW(run_everyone(pool,
                            [](std::size_t i) {
                              if (i == 0) throw std::logic_error("caller");
                            }),
               std::logic_error);
  std::atomic<int> calls{0};
  run_everyone(pool, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(WorkerPool, NestedRunIsRefused) {
  worker_pool pool(2);
  EXPECT_THROW(run_everyone(pool,
                            [&](std::size_t i) {
                              if (i == 0) pool.run([](std::size_t) {});
                            }),
               precondition_error);
  std::atomic<int> calls{0};
  run_everyone(pool, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace lcg
