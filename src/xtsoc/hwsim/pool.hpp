// WorkerPool: a persistent fork/join pool, the only source of threads in
// xtsoc. A worker runs one of two kinds of job:
//
//   * cosim::CoSimulation (threads > 1) runs each execution window's
//     per-domain phase-A jobs on it — one handshake per window of W cycles
//     (W = 1 when the lookahead allows no more);
//   * fault::Campaign and snap::WarmCampaign run one campaign seed per job.
//
// N-1 threads are spawned once and kept; the caller participates as the
// Nth worker. One generation = one run(). All hand-offs go through the
// mutex, which gives the happens-before edges both users need: state
// written by the caller before run() is visible to workers, and state
// written by workers inside the job is visible to the caller after run()
// returns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xtsoc::hwsim {

class WorkerPool {
public:
  explicit WorkerPool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers > 1 ? workers - 1 : 0));
    for (int i = 1; i < workers; ++i) {
      threads_.emplace_back([this] { thread_main(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers the pool runs jobs on, counting the calling thread.
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Run `job` on every worker (including the calling thread) and wait for
  /// all of them to finish it. The job must partition its own work (e.g.
  /// by pulling indices off a shared atomic cursor).
  void run(const std::function<void()>& job) {
    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &job;
      running_ = static_cast<int>(threads_.size());
      ++generation_;
    }
    start_.notify_all();
    job();
    std::unique_lock<std::mutex> lk(m_);
    done_.wait(lk, [this] { return running_ == 0; });
    job_ = nullptr;
  }

private:
  void thread_main() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void()>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        start_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)();
      {
        std::lock_guard<std::mutex> lk(m_);
        --running_;
      }
      done_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void()>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
};

}  // namespace xtsoc::hwsim
