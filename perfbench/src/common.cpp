#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ProcessUsage process_usage() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return {};
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {static_cast<double>(usage.ru_minflt), seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::below(std::size_t bound) {
  return bound == 0 ? 0 : static_cast<std::size_t>(next() % bound);
}

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string verdict_string(const std::vector<csrlmrm::checker::Verdict>& verdicts) {
  std::string out(verdicts.size(), '?');
  for (std::size_t s = 0; s < verdicts.size(); ++s) {
    if (verdicts[s] == csrlmrm::checker::Verdict::kSat) out[s] = 'Y';
    if (verdicts[s] == csrlmrm::checker::Verdict::kUnsat) out[s] = 'N';
  }
  return out;
}

void set_bounds(Answer& answer, const std::vector<csrlmrm::checker::ProbabilityBound>& bounds,
                std::size_t report_state) {
  answer.max_width = 0.0;
  for (const auto& bound : bounds) {
    const double width = bound.upper - bound.lower;
    if (std::isfinite(width)) answer.max_width = std::max(answer.max_width, width);
  }
  if (report_state < bounds.size()) {
    answer.lower = bounds[report_state].lower;
    answer.upper = bounds[report_state].upper;
  }
}

bool Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  entries_.clear();
  excluded_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    if (line.compare(tab + 1, std::string::npos, "excluded") == 0) {
      excluded_.insert(line.substr(0, tab));
      continue;
    }
    GoldenEntry entry;
    std::istringstream fields(line.substr(tab + 1));
    std::string hash_text;
    if (!(fields >> hash_text >> entry.sat_states >> entry.lower >> entry.upper)) return false;
    entry.verdict_hash = std::stoull(hash_text, nullptr, 16);
    entries_[line.substr(0, tab)] = entry;
  }
  return !entries_.empty();
}

bool Golden::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# key\tverdict-fnv1a sat-states lower upper, or 'excluded' (see perfbench/README.md)\n";
  for (const std::string& key : excluded_) out << key << "\texcluded\n";
  char buffer[160];
  for (const auto& [key, entry] : entries_) {
    std::snprintf(buffer, sizeof(buffer), "\t%016llx %zu %.17g %.17g\n",
                  static_cast<unsigned long long>(entry.verdict_hash), entry.sat_states,
                  entry.lower, entry.upper);
    out << key << buffer;
  }
  return static_cast<bool>(out);
}

void Golden::record(const std::string& key, const Answer& answer) {
  GoldenEntry entry;
  entry.verdict_hash = fnv1a(answer.verdicts);
  entry.sat_states = static_cast<std::size_t>(
      std::count(answer.verdicts.begin(), answer.verdicts.end(), 'Y'));
  entry.lower = answer.lower;
  entry.upper = answer.upper;
  entries_[key] = entry;
}

bool Golden::check(const std::string& key, const Answer& answer, std::string& why) const {
  if (!answer.ok) {
    why = "error: " + answer.error;
    return false;
  }
  if (answer.degraded) {
    why = "degraded reply";
    return false;
  }
  if (answer.verdicts.find('?') != std::string::npos) {
    why = "UNKNOWN states";
    return false;
  }
  const auto found = entries_.find(key);
  if (found == entries_.end()) {
    why = "no golden answer";
    return false;
  }
  const GoldenEntry& entry = found->second;
  if (fnv1a(answer.verdicts) != entry.verdict_hash) {
    why = "verdicts differ from golden";
    return false;
  }
  if (answer.upper < entry.lower || answer.lower > entry.upper) {
    why = "enclosure does not overlap golden";
    return false;
  }
  return true;
}

}  // namespace perfbench
