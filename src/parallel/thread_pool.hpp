// Lazily-started shared thread pool and deterministic parallel loops.
//
// The numeric engines (discretization level sweeps, uniformization series,
// per-state checker fan-out) are embarrassingly parallel over states, so the
// library funnels them through one process-wide worker pool instead of
// spawning threads per call. Design constraints, in order:
//
//   1. Determinism: for a fixed thread count the work is split into a fixed
//      chunk layout that depends only on (item count, thread count) — never
//      on timing or on how many workers actually execute the chunks — and
//      parallel_reduce combines per-chunk partials in chunk order. Kernels
//      whose per-item computation is order-independent therefore produce
//      bitwise-identical results at every thread count.
//   2. Laziness: no thread is started until the first parallel region with
//      an effective thread count > 1 runs; a serial process never pays.
//   3. Composability: regions nested inside a pool worker run sequentially
//      on the calling thread (no deadlock, no oversubscription), so a
//      parallel checker loop can call an engine that is itself parallel
//      when used standalone.
//
// Thread-count resolution: an options-level `threads` field of 0 means "the
// process default", which is the CSRLMRM_THREADS environment variable when
// set to a positive integer, else std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace csrlmrm::parallel {

/// Process default worker count: set_default_thread_count override if any,
/// else CSRLMRM_THREADS, else hardware concurrency (at least 1).
unsigned default_thread_count();

/// Overrides the process-wide default thread count; 0 restores the
/// environment/hardware default. Thread-safe.
void set_default_thread_count(unsigned count);

/// Resolves an options-level thread count: 0 means the process default.
unsigned resolve_thread_count(unsigned requested);

/// True while the calling thread executes a pool task; nested parallel
/// regions detect this and run inline.
bool in_parallel_region();

/// Picks the thread count for a region processing roughly `work` scalar
/// operations. An explicit request (> 0) is honored as-is; the default (0)
/// stays serial below a dispatch-amortization threshold so tiny problems
/// never pay pool overhead.
unsigned choose_thread_count(unsigned requested, std::size_t work);

/// The shared pool. Use through parallel_for / parallel_reduce; exposed for
/// tests and custom chunkings.
class ThreadPool {
 public:
  /// The process-wide pool (created on first use, workers started lazily).
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Runs task(chunk) for every chunk in [0, chunks), distributing chunks
  /// over the workers; the calling thread participates. Blocks until every
  /// chunk finished. The first exception thrown by any chunk is rethrown
  /// here (remaining chunks still run). Must not be called from inside a
  /// pool task — nest through parallel_for, which serializes instead.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& task);

 private:
  ThreadPool() = default;
  void ensure_workers_locked(std::size_t wanted);
  void worker_loop();
  /// Executes chunks of the current job until none remain. `lock` must hold
  /// mutex_ on entry and holds it again on return.
  void drain_current_job(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* task_ = nullptr;  // null = idle
  std::size_t chunks_ = 0;
  std::size_t next_chunk_ = 0;
  std::size_t active_ = 0;  // workers inside task_ right now
  std::uint64_t epoch_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Splits [0, count) into min(threads, count) contiguous chunks and runs
/// body(begin, end) for each, in parallel. The chunk layout depends only on
/// (count, effective thread count). Runs inline when the effective thread
/// count is 1, count <= 1, or the caller is already inside a pool task.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Deterministic chunked reduction: `chunk(begin, end, identity)` produces
/// one partial per chunk (same layout as parallel_for) and `join` combines
/// the partials strictly in ascending chunk order, so the result depends
/// only on the effective thread count, not on scheduling.
template <typename T, typename ChunkFn, typename JoinFn>
T parallel_reduce(std::size_t count, unsigned threads, T identity, ChunkFn chunk,
                  JoinFn join) {
  if (count == 0) return identity;
  const unsigned effective = resolve_thread_count(threads);
  if (effective <= 1 || count == 1 || in_parallel_region()) {
    return chunk(std::size_t{0}, count, std::move(identity));
  }
  const std::size_t chunks = std::min<std::size_t>(effective, count);
  std::vector<T> partials(chunks, identity);
  ThreadPool::instance().run(chunks, [&](std::size_t c) {
    const std::size_t begin = count * c / chunks;
    const std::size_t end = count * (c + 1) / chunks;
    partials[c] = chunk(begin, end, partials[c]);
  });
  T result = std::move(partials[0]);
  for (std::size_t c = 1; c < chunks; ++c) result = join(std::move(result), std::move(partials[c]));
  return result;
}

}  // namespace csrlmrm::parallel
