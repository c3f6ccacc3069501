// Stable sorting for arrays that arrive as a few presorted runs — the
// signature-class DP's per-level successor rows and its harvest rows
// (class_explorer.cpp).
//
// A level's frontier is sorted by (state, signature), and every edge of the
// uniformized DTMC adds a constant to one k count and a monotone snapped
// impulse to a signature. So the children a level sends to one target state
// arrive as one non-decreasing run per parent state. BucketSorter exploits
// that: a stable counting pass by target state, then a natural merge of each
// bucket's runs (merge_runs). A stable sort has exactly one output for given
// keys and input order, so both routines return std::stable_sort's
// permutation; only the number of comparisons differs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "numeric/page_buffer.hpp"

namespace csrlmrm::numeric {

/// Stable natural merge sort of [first, last) under the strict weak order
/// `less`. Maximal non-decreasing runs are kept as they are, maximal
/// strictly descending runs are reversed (no two of their elements compare
/// equal, so reversing keeps stability); adjacent runs are then merged
/// pairwise, the left element winning ties, until one run is left. Costs
/// O(n log(runs)) comparisons. `scratch` and `runs` are working storage the
/// caller keeps across calls; their contents are unspecified afterwards.
template <class T, class Less>
void merge_runs(T* first, T* last, PageBuffer<T>& scratch, PageBuffer<std::size_t>& runs,
                Less less) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n < 2) return;
  runs.clear();
  for (std::size_t begin = 0; begin < n;) {
    runs.push_back(begin);
    std::size_t end = begin + 1;
    if (end < n && less(first[end], first[begin])) {
      do ++end;
      while (end < n && less(first[end], first[end - 1]));
      std::reverse(first + begin, first + end);
    } else {
      while (end < n && !less(first[end], first[end - 1])) ++end;
    }
    begin = end;
  }
  if (runs.size() == 1) return;
  runs.push_back(n);

  if (scratch.size() < n) scratch.resize(n);  // grow only: no refill per call
  T* from = first;
  T* to = scratch.data();
  while (runs.size() > 2) {
    // runs holds the run starts and n; merge runs 2m and 2m+1 into one.
    std::size_t kept = 0;
    std::size_t r = 0;
    for (; r + 2 < runs.size(); r += 2) {
      const std::size_t lo = runs[r];
      const std::size_t mid = runs[r + 1];
      const std::size_t hi = runs[r + 2];
      std::size_t a = lo;
      std::size_t b = mid;
      std::size_t out = lo;
      while (a < mid && b < hi) to[out++] = less(from[b], from[a]) ? from[b++] : from[a++];
      out = static_cast<std::size_t>(std::copy(from + a, from + mid, to + out) - to);
      std::copy(from + b, from + hi, to + out);
      runs[kept++] = lo;
    }
    if (r + 1 < runs.size()) {  // an odd run out: carried over unmerged
      std::copy(from + runs[r], from + n, to + runs[r]);
      runs[kept++] = runs[r];
    }
    runs[kept++] = n;
    runs.resize(kept);
    std::swap(from, to);
  }
  if (from != first) std::copy(from, from + n, first);
}

/// Stable sort of row indices by (key, then a within-key order), for keys
/// drawn from [0, key_bound): a counting pass buckets the rows by key, then
/// merge_runs orders each bucket. Only the keys present are touched, so no
/// cost grows with key_bound except the first growth of a key -> bucket
/// table the sorter keeps (all zero between calls).
class BucketSorter {
 public:
  /// Writes to `order` the permutation of 0..n-1 that std::stable_sort
  /// produces for the order "keys[a] < keys[b], or equal keys and
  /// less(a, b)". Every keys[i] must be < key_bound.
  template <class Key, class Less>
  void sort(const Key* keys, std::size_t n, std::size_t key_bound,
            PageBuffer<std::uint32_t>& order, Less less) {
    // Every buffer that can grow is sized before the first bucket_of_ entry
    // is set, so a failed allocation cannot leave the table dirty.
    if (bucket_of_.size() < key_bound) bucket_of_.resize(key_bound);
    const std::size_t most = std::min(n, key_bound);
    present_.clear();
    present_.reserve(most);
    next_.clear();
    next_.reserve(most);
    bounds_.clear();
    bounds_.reserve(most + 1);
    order.resize(n);

    // Count the rows per key, numbering the buckets in discovery order
    // (bucket_of_ holds bucket + 1; 0 = key absent).
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t& bucket = bucket_of_[keys[i]];
      if (bucket == 0) {
        present_.push_back(static_cast<std::uint32_t>(keys[i]));
        next_.push_back(0);
        bucket = static_cast<std::uint32_t>(present_.size());
      }
      ++next_[bucket - 1];
    }
    // Lay the buckets out in key order: the distinct keys are sorted (no
    // ties, so any sort gives the one order), then each bucket's count
    // becomes its write cursor.
    std::sort(present_.begin(), present_.end());
    std::uint32_t offset = 0;
    for (std::uint32_t key : present_) {
      std::uint32_t& cursor = next_[bucket_of_[key] - 1];
      bounds_.push_back(offset);
      offset += std::exchange(cursor, offset);
    }
    bounds_.push_back(offset);
    for (std::size_t i = 0; i < n; ++i) {
      order[next_[bucket_of_[keys[i]] - 1]++] = static_cast<std::uint32_t>(i);
    }
    for (std::uint32_t key : present_) bucket_of_[key] = 0;

    for (std::size_t b = 0; b + 1 < bounds_.size(); ++b) {
      merge_runs(order.data() + bounds_[b], order.data() + bounds_[b + 1], merge_, runs_, less);
    }
  }

  /// Bytes mapped by the sorter's buffers.
  std::size_t bytes() const {
    return bucket_of_.bytes() + present_.bytes() + next_.bytes() + bounds_.bytes() +
           merge_.bytes() + runs_.bytes();
  }

 private:
  PageBuffer<std::uint32_t> bucket_of_;  // key -> bucket + 1, 0 between calls
  PageBuffer<std::uint32_t> present_;    // the keys present, sorted
  PageBuffer<std::uint32_t> next_;       // per bucket: row count, then write cursor
  PageBuffer<std::uint32_t> bounds_;     // bucket b = order[bounds_[b], bounds_[b + 1])
  PageBuffer<std::uint32_t> merge_;
  PageBuffer<std::size_t> runs_;
};

}  // namespace csrlmrm::numeric
