#include "util/worker_pool.h"

#include <chrono>
#include <utility>

#include "util/error.h"

namespace lcg {

namespace {

/// How long a waiting thread polls before it blocks: long enough to catch
/// the next dispatch of a caller that prepares its jobs back to back (an
/// arena proposal's serial part takes tens of microseconds, a futex wake in
/// a VM about as long), short enough that an idle pool yields its cores
/// almost at once.
constexpr std::chrono::microseconds spin_for{200};

/// Layout of worker_pool::entry_.
constexpr std::uint64_t open_flag = std::uint64_t{1} << 31;
constexpr std::uint64_t count_mask = open_flag - 1;
std::uint64_t tag_of(std::uint64_t generation) { return generation << 32; }

/// Waits until `pred(value)` holds for the value of `a`, spinning first.
template <class T, class Pred>
T await(const std::atomic<T>& a, Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + spin_for;
  bool spinning = true;
  for (;;) {
    const T value = a.load(std::memory_order_acquire);
    if (pred(value)) return value;
    if (spinning && std::chrono::steady_clock::now() < deadline) continue;
    spinning = false;
    a.wait(value, std::memory_order_acquire);
  }
}

}  // namespace

worker_pool::worker_pool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { work(i + 1); });
}

worker_pool::~worker_pool() {
  stopping_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  // threads_ is destroyed first and joins every worker.
}

void worker_pool::work(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    seen = await(generation_, [seen](std::uint64_t g) { return g != seen; });
    if (stopping_.load(std::memory_order_relaxed)) return;
    // Join the run only while it is still open: once the caller's share
    // has returned, the job's state may already be gone.
    std::uint64_t e = entry_.load(std::memory_order_acquire);
    bool joined = false;
    while ((e & ~count_mask) == (tag_of(seen) | open_flag) && !joined) {
      joined = entry_.compare_exchange_weak(e, e + 1,
                                            std::memory_order_acq_rel);
    }
    if (!joined) continue;
    try {
      (*job_)(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    e = entry_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if ((e & (count_mask | open_flag)) == 0) entry_.notify_one();
  }
}

void worker_pool::run(const std::function<void(std::size_t)>& job) {
  if (threads_.empty()) {
    job(0);
    return;
  }
  // A run from inside a job (or from a second caller) would hand the
  // workers a new job before the current one finished.
  LCG_EXPECTS(!running_.exchange(true, std::memory_order_acquire));
  job_ = &job;
  const std::uint64_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  entry_.store(tag_of(generation) | open_flag, std::memory_order_relaxed);
  generation_.store(generation, std::memory_order_release);
  generation_.notify_all();
  std::exception_ptr caller_error;
  try {
    job(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  // Close the run, then wait for the workers inside it: they hold `job`
  // until they leave, so wait even when the caller's share threw.
  entry_.fetch_and(~open_flag, std::memory_order_acq_rel);
  await(entry_, [](std::uint64_t e) { return (e & count_mask) == 0; });
  job_ = nullptr;
  running_.store(false, std::memory_order_release);
  std::exception_ptr worker_error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    worker_error = std::exchange(error_, nullptr);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

}  // namespace lcg
