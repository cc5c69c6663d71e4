// A persistent pool of worker threads that run one job at a time together
// with the calling thread.
//
// run(job) runs `job` on the caller and on every worker that picks it up
// before the caller's own share returns, then waits for those workers to
// finish. A worker that wakes after that point skips the job, so a caller
// never waits for a thread that has not started yet: jobs split their work
// through shared state (typically an atomic cursor over a list) and must
// not rely on any particular worker taking part. Workers are started once,
// in the constructor, and joined in the destructor, so a caller that
// dispatches many small jobs pays no thread creation per job. Between
// jobs a worker spins for a couple of hundred microseconds, then blocks on
// an atomic wait, so an idle pool does not compete for cores with other
// threads of the process.

#ifndef LCG_UTIL_WORKER_POOL_H
#define LCG_UTIL_WORKER_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lcg {

class worker_pool {
 public:
  /// Starts `workers` threads; with 0 workers run() is a plain call.
  explicit worker_pool(std::size_t workers);
  ~worker_pool();
  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  /// Participants of a run: the workers plus the calling thread.
  [[nodiscard]] std::size_t size() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs job(0) on the caller and job(i) on each worker i in
  /// [1, size()) that joins before job(0) returns; each participant runs
  /// the job at most once. Returns when every started call has returned
  /// and rethrows the first exception any of them threw (the caller's own
  /// first). One run at a time: a run started while another is in
  /// progress (from inside a job, say) throws precondition_error.
  void run(const std::function<void(std::size_t)>& job);

 private:
  void work(std::size_t index);

  std::atomic<std::uint64_t> generation_{0};  // bumped once per run
  // The open run's admission word: the low 32 bits of its generation in
  // the high half, an "open" flag, and the count of workers inside it.
  std::atomic<std::uint64_t> entry_{0};
  std::atomic<bool> running_{false};          // a run is in progress
  // Written by the caller before the generation bump that publishes it.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;  // guarded by error_mutex_
  // Last, so the threads are joined before anything they read is destroyed.
  std::vector<std::jthread> threads_;
};

}  // namespace lcg

#endif  // LCG_UTIL_WORKER_POOL_H
