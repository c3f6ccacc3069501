#include "parallel/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/stats.hpp"

namespace csrlmrm::parallel {

namespace {

thread_local bool t_in_parallel_region = false;

std::atomic<unsigned> g_default_override{0};

unsigned environment_thread_count() {
  const char* text = std::getenv("CSRLMRM_THREADS");
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || value == 0 || value > 4096) return 0;
  return static_cast<unsigned>(value);
}

/// Below this much scalar work a default-threaded region stays serial: pool
/// dispatch costs a few microseconds, which only amortizes over ~10^4 ops.
constexpr std::size_t kMinParallelWork = 1 << 14;

}  // namespace

unsigned default_thread_count() {
  const unsigned override = g_default_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const unsigned from_environment = environment_thread_count();
  if (from_environment > 0) return from_environment;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

void set_default_thread_count(unsigned count) {
  g_default_override.store(count, std::memory_order_relaxed);
}

unsigned resolve_thread_count(unsigned requested) {
  return requested > 0 ? requested : default_thread_count();
}

bool in_parallel_region() { return t_in_parallel_region; }

unsigned choose_thread_count(unsigned requested, std::size_t work) {
  if (requested > 0) return requested;
  return work < kMinParallelWork ? 1 : default_thread_count();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ensure_workers_locked(std::size_t wanted) {
  while (workers_.size() < wanted) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    wake_.wait(lock, [&] {
      return stop_ || (task_ != nullptr && epoch_ != seen_epoch && next_chunk_ < chunks_);
    });
    if (stop_) return;
    seen_epoch = epoch_;
    drain_current_job(lock);
  }
}

void ThreadPool::drain_current_job(std::unique_lock<std::mutex>& lock) {
  while (task_ != nullptr && next_chunk_ < chunks_) {
    const std::size_t chunk = next_chunk_++;
    const auto* task = task_;
    ++active_;
    lock.unlock();
    t_in_parallel_region = true;
    try {
      (*task)(chunk);
    } catch (...) {
      t_in_parallel_region = false;
      obs::flush_thread();  // unwind closed any timers; don't strand the data
      lock.lock();
      if (!error_) error_ = std::current_exception();
      --active_;
      continue;
    }
    t_in_parallel_region = false;
    obs::counter_add("thread_pool.chunks");
    // Flush this thread's pending stats before reporting the chunk done:
    // run() returns only after active_ reaches 0 under this mutex, so every
    // flush happens-before the region completes — no thread-local data from
    // the region can race with a post-region registry snapshot.
    obs::flush_thread();
    lock.lock();
    --active_;
  }
  if (next_chunk_ >= chunks_ && active_ == 0) done_.notify_all();
}

void ThreadPool::run(std::size_t chunks, const std::function<void(std::size_t)>& task) {
  if (chunks == 0) return;
  obs::counter_add("thread_pool.jobs");
  std::unique_lock<std::mutex> lock(mutex_);
  // One job at a time: the pool is only entered from non-nested regions, and
  // concurrent top-level callers serialize here.
  done_.wait(lock, [&] { return task_ == nullptr; });
  ensure_workers_locked(chunks > 0 ? chunks - 1 : 0);
  task_ = &task;
  chunks_ = chunks;
  next_chunk_ = 0;
  error_ = nullptr;
  ++epoch_;
  wake_.notify_all();
  drain_current_job(lock);  // the caller works too
  done_.wait(lock, [&] { return next_chunk_ >= chunks_ && active_ == 0; });
  task_ = nullptr;
  std::exception_ptr error = std::exchange(error_, nullptr);
  done_.notify_all();  // release any queued top-level caller
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const unsigned effective = resolve_thread_count(threads);
  if (effective <= 1 || count == 1 || in_parallel_region()) {
    body(0, count);
    return;
  }
  const std::size_t chunks = std::min<std::size_t>(effective, count);
  ThreadPool::instance().run(chunks, [&](std::size_t c) {
    const std::size_t begin = count * c / chunks;
    const std::size_t end = count * (c + 1) / chunks;
    if (begin < end) body(begin, end);
  });
}

}  // namespace csrlmrm::parallel
