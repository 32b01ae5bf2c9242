// WorkerPool: a persistent fork/join pool, the only source of threads in
// xtsoc. run(n, job) calls job(i) once for every i in [0, n), on the calling
// thread or on a worker, and returns when all n calls have finished. Its two
// users:
//
//   * cosim::CoSimulation runs each execution window's phase-A jobs on it,
//     one index per awake domain — one run() per window of W cycles (W = 1
//     when the lookahead allows no more);
//   * fault::Campaign (and snap::WarmCampaign through it) runs one index
//     per campaign seed.
//
// N-1 threads are spawned once and kept; the caller is the Nth worker, so
// WorkerPool(1) spawns nothing and runs every job inline.
//
// The handshake is two atomics, no lock:
//
//   * the generation word holds a stop bit, a 7-bit generation and a
//     24-bit count of unclaimed indices. run() publishes (generation + 1,
//     n) and starts claiming at once; every claim is a compare-exchange
//     that takes the next index of the generation the word holds, so a
//     worker that wakes late claims nothing (or from the current
//     generation, never from a stale one) and delays nobody;
//   * the done counter counts finished jobs. run() returns when it reaches
//     n — it waits for the jobs, not for the workers to check in.
//
// A thread with nothing to do spins for kSpinPauses pause instructions,
// then parks in std::atomic::wait (a futex on Linux) until the word or the
// counter changes. Memory ordering: the caller writes the job before the
// release store of the word, and a claim is an acquire on it, so a job sees
// everything the caller wrote before run(); a job's writes precede its
// acq_rel increment of the done counter, which run() reads with acquire
// before it returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace xtsoc::hwsim {

class WorkerPool {
public:
  /// Largest `n` one run() accepts: the unclaimed count's 24 bits.
  static constexpr std::size_t kMaxJobs = (std::size_t{1} << 24) - 1;

  /// Pause instructions a thread with nothing to do spins before it parks.
  /// Sized on a 4-vCPU Sapphire Rapids VM, where one pause takes 16.7 ns:
  /// 2048 pauses are about 34 us. That outlasts the serial stretch between
  /// two windows of the perfbench meshes (phase B plus the boundary, about
  /// 28 us for a 4-cycle `mesh_coherent` window), so the workers are awake
  /// when the next window is published and the caller does not pay a futex
  /// wake per window; and a pool left idle (a campaign between seeds, a
  /// simulation between run calls) parks within tens of microseconds. At
  /// 256 pauses `mesh_coherent` and `mesh_compute` ran about 10% slower, at
  /// 16384 no faster. The constant counts instructions, not time: pause
  /// takes from about 10 to about 140 cycles across x86 generations.
  static constexpr int kSpinPauses = 2048;

  explicit WorkerPool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers > 1 ? workers - 1 : 0));
    for (int i = 1; i < workers; ++i) {
      threads_.emplace_back([this] { thread_main(); });
    }
  }

  ~WorkerPool() {
    // No run word has the stop bit, so every waiting worker sees a change.
    word_.store(kStop, std::memory_order_release);
    word_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers the pool runs jobs on, counting the calling thread.
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Call job(i) once for each i in [0, n) and return when every call has
  /// finished. Indices are claimed in ascending order. n <= 1, or a pool
  /// of one, runs the jobs inline on the calling thread. If jobs throw,
  /// run() rethrows the exception of the lowest index that threw, after
  /// the jobs in flight have finished; every index below it has run.
  template <typename Job>
  void run(std::size_t n, Job&& job) {
    if (n <= 1 || threads_.empty()) {
      for (std::size_t i = 0; i < n; ++i) job(i);
      return;
    }
    if (n > kMaxJobs) {
      throw std::length_error("WorkerPool::run: more than 2^24 - 1 jobs");
    }
    using Fn = std::remove_reference_t<Job>;
    call_ = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
    ctx_ = const_cast<void*>(static_cast<const void*>(std::addressof(job)));
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    // Publish the next generation. The generation makes the word differ
    // from every recent one, so a compare-exchange on a word read in an
    // earlier run fails instead of claiming in this one.
    const std::uint32_t w =
        ((word_.load(std::memory_order_relaxed) + kGenOne) & kGenMask) |
        static_cast<std::uint32_t>(n);
    word_.store(w, std::memory_order_release);
    word_.notify_all();
    drain(w);
    await_done(static_cast<std::uint32_t>(n));
    if (error_) {
      std::exception_ptr e = std::move(error_);
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

private:
  static constexpr std::uint32_t kCountMask = (std::uint32_t{1} << 24) - 1;
  static constexpr std::uint32_t kGenOne = std::uint32_t{1} << 24;
  static constexpr std::uint32_t kGenMask = std::uint32_t{0x7f} << 24;
  static constexpr std::uint32_t kStop = std::uint32_t{1} << 31;

  static void relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Claim and run indices of the generation in `w` until none is left.
  /// Returns the last word seen, whose unclaimed count is zero.
  std::uint32_t drain(std::uint32_t w) {
    while ((w & kCountMask) != 0) {
      if (!word_.compare_exchange_weak(w, w - 1, std::memory_order_acquire,
                                       std::memory_order_acquire)) {
        continue;
      }
      // The claim pins the generation: run() cannot return, nor the next
      // one rewrite n_ and the job, until this index counts as done.
      const std::size_t n = n_;
      const std::size_t i = n - (w & kCountMask);
      try {
        call_(ctx_, i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_m_);
        if (!error_ || i < error_index_) {
          error_ = std::current_exception();
          error_index_ = i;
        }
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        done_.notify_one();
      }
      --w;
    }
    return w;
  }

  void await_done(std::uint32_t n) {
    for (int spin = 0;; ++spin) {
      const std::uint32_t d = done_.load(std::memory_order_acquire);
      if (d == n) return;
      if (spin < kSpinPauses) {
        relax();
      } else {
        done_.wait(d, std::memory_order_acquire);
      }
    }
  }

  void thread_main() {
    // `seen` is the word last drained (the stop word ends the loop; drain
    // can also return it, when the pool is destroyed under a failed claim).
    for (std::uint32_t seen = 0; (seen & kStop) == 0;) {
      std::uint32_t w = seen;
      for (int spin = 0; w == seen; ++spin) {
        if (spin < kSpinPauses) {
          relax();
        } else {
          word_.wait(seen, std::memory_order_acquire);
        }
        w = word_.load(std::memory_order_acquire);
      }
      seen = drain(w);
    }
  }

  // The published job: written by run() before the word's release store.
  void (*call_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::mutex error_m_;
  std::exception_ptr error_;  ///< lowest-index exception of this run()
  std::size_t error_index_ = 0;
  // Each on its own cache line: every claim writes the word, every finished
  // job the counter.
  alignas(64) std::atomic<std::uint32_t> word_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::vector<std::thread> threads_;
};

}  // namespace xtsoc::hwsim
