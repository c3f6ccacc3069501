#include "env.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

using csrlmrm::obs::JsonValue;

namespace {

/// Integer LCG spin; returns a value the caller must use so it is not elided.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

double spin_ms(std::uint64_t iterations, std::uint64_t& sink) {
  const std::uint64_t start = now_ns();
  sink ^= spin(iterations);
  return ns_to_ms(static_cast<double>(now_ns() - start));
}

/// Wall time of `workers` concurrent spins of `iterations` each.
double parallel_spin_ms(unsigned workers, std::uint64_t iterations, std::uint64_t& sink) {
  std::vector<std::uint64_t> sinks(workers, 0);
  std::vector<std::thread> threads;
  const std::uint64_t start = now_ns();
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&sinks, w, iterations] { sinks[w] = spin(iterations); });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed = ns_to_ms(static_cast<double>(now_ns() - start));
  for (const std::uint64_t value : sinks) sink ^= value;
  return elapsed;
}

long cache_bytes(int name, long fallback) {
  const long value = sysconf(name);
  return value > 0 ? value : fallback;
}

}  // namespace

JsonValue probe_environment() {
  JsonValue env = JsonValue::object();
  env.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
  env.set("compiler", JsonValue(std::string(PERFBENCH_COMPILER)));
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  env.set("nproc", JsonValue(static_cast<double>(nproc)));

  // Effective cores: one calibrated burn alone vs nproc copies at once.
  std::uint64_t sink = 0;
  std::uint64_t iterations = 20'000'000;
  const double probe = spin_ms(iterations, sink);
  iterations = static_cast<std::uint64_t>(static_cast<double>(iterations) * 150.0 /
                                          std::max(probe, 1e-3));
  std::vector<double> single;
  std::vector<double> parallel;
  for (int round = 0; round < 3; ++round) {
    single.push_back(spin_ms(iterations, sink));
    parallel.push_back(parallel_spin_ms(nproc, iterations, sink));
  }
  const double single_ms = median(single);
  const double parallel_ms = median(parallel);
  JsonValue cores = JsonValue::object();
  cores.set("burn_single_ms", JsonValue(single_ms));
  cores.set("burn_parallel_ms", JsonValue(parallel_ms));
  cores.set("effective_cores", JsonValue(nproc * single_ms / parallel_ms));
  env.set("cores", std::move(cores));

  // Fixed host-speed reference: the same spin count on every host and run.
  // Recorded only, never used to rescale a metric.
  std::vector<double> reference;
  for (int round = 0; round < 5; ++round) reference.push_back(spin_ms(50'000'000, sink));
  env.set("host_reference_ms", JsonValue(median(reference)));
  env.set("host_reference_spins", JsonValue(5e7));

  const long l2 = cache_bytes(_SC_LEVEL2_CACHE_SIZE, 0);  // lint:allow(reserved-identifier)
  const long l3 = cache_bytes(_SC_LEVEL3_CACHE_SIZE, 32L << 20);  // lint:allow(reserved-identifier)
  env.set("l2_bytes", JsonValue(static_cast<double>(l2)));
  env.set("l3_bytes", JsonValue(static_cast<double>(l3)));

  // Streaming read bandwidth over an array of at least 4x L3.
  const std::size_t bytes = std::max<std::size_t>(static_cast<std::size_t>(4 * l3), 256u << 20);
  const std::size_t count = bytes / sizeof(double);
  std::vector<double> array(count);
  for (std::size_t i = 0; i < count; ++i) array[i] = static_cast<double>(i & 1023);
  double best_s = 1e300;
  double total = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const std::uint64_t start = now_ns();
    double sum0 = 0.0, sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
    for (std::size_t i = 0; i + 3 < count; i += 4) {
      sum0 += array[i];
      sum1 += array[i + 1];
      sum2 += array[i + 2];
      sum3 += array[i + 3];
    }
    total += sum0 + sum1 + sum2 + sum3;
    best_s = std::min(best_s, static_cast<double>(now_ns() - start) * 1e-9);
  }
  JsonValue bandwidth = JsonValue::object();
  bandwidth.set("kernel", JsonValue(std::string("streaming read (sum), best of 4 passes")));
  bandwidth.set("array_bytes", JsonValue(static_cast<double>(count * sizeof(double))));
  bandwidth.set("array_over_l3", JsonValue(static_cast<double>(count * sizeof(double)) /
                                           static_cast<double>(l3)));
  bandwidth.set("gb_per_s", JsonValue(static_cast<double>(count * sizeof(double)) / best_s * 1e-9));
  bandwidth.set("checksum", JsonValue(total));
  env.set("stream_bandwidth", std::move(bandwidth));
  env.set("spin_sink", JsonValue(static_cast<double>(sink & 0xff)));
  return env;
}

}  // namespace perfbench
