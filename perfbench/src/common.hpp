// Shared helpers of the perfbench program: clocks, order statistics, process
// memory, the seeded generator, and the golden-answer store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "checker/verdict.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();

inline double ns_to_ms(double ns) { return ns * 1e-6; }

/// Linear-interpolated quantile of `values` (q in [0,1]); 0 when empty.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);
/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);

/// Process high-water resident set in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Minor page faults and user/system CPU seconds of this process so far.
struct ProcessUsage {
  double minor_faults = 0.0;
  double user_s = 0.0;
  double system_s = 0.0;
};
ProcessUsage process_usage();

/// SplitMix64: the only source of randomness, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, bound).
  std::size_t below(std::size_t bound);

 private:
  std::uint64_t state_;
};

/// A seeded permutation of [0, n).
std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng);

std::uint64_t fnv1a(const std::string& text);

/// What one query answered, reduced to the parts the correctness gate and
/// the end-to-end metrics look at.
struct Answer {
  bool ok = false;          // ran without an exception
  std::string error;
  bool degraded = false;    // the service answered without checking
  std::string verdicts;     // one 'Y' / 'N' / '?' per state
  double lower = 0.0;       // enclosure at the reported state
  double upper = 0.0;
  double max_width = 0.0;   // widest finite enclosure over all states
};

/// Verdict string of a three-valued result vector.
std::string verdict_string(const std::vector<csrlmrm::checker::Verdict>& verdicts);

/// Fills lower/upper (at `report_state`) and max_width from per-state bounds.
void set_bounds(Answer& answer, const std::vector<csrlmrm::checker::ProbabilityBound>& bounds,
                std::size_t report_state);

/// Recorded answers per query key: the verdict string's FNV-1a hash, its
/// number of SAT states, and the enclosure at the reported state.
struct GoldenEntry {
  std::uint64_t verdict_hash = 0;
  std::size_t sat_states = 0;
  double lower = 0.0;
  double upper = 0.0;
};

class Golden {
 public:
  /// Reads a file written by save(); returns false when it cannot be read.
  bool load(const std::string& path);
  bool save(const std::string& path) const;
  void record(const std::string& key, const Answer& answer);
  /// Marks a pool entry the checker cannot decide at its configured accuracy
  /// (some state UNKNOWN): runs skip it.
  void exclude(const std::string& key) { excluded_.insert(key); }
  bool excluded(const std::string& key) const { return excluded_.count(key) != 0; }

  /// The gate: the query ran, was not degraded, left no state UNKNOWN, its
  /// verdicts equal the recorded ones and its enclosure overlaps the recorded
  /// one. `why` names the first failed condition.
  bool check(const std::string& key, const Answer& answer, std::string& why) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t excluded_count() const { return excluded_.size(); }

 private:
  std::map<std::string, GoldenEntry> entries_;
  std::set<std::string> excluded_;
};

}  // namespace perfbench
