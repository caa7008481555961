// ttf.h — the paper's "total time fraction" duration metric (§3.2.1, Eq. 1).
//
// A naive PMF over assignment durations overrepresents hosts whose addresses
// change often (they contribute many short samples). The total time fraction
// weights each duration by its length:
//
//     f_p(d) = n(d) * d / Σ(D)
//
// which equals the probability that a CPE observed at a random instant is in
// an assignment of duration d. The cumulative curve of f_p is what Fig. 1
// plots.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace dynamips::stats {

/// Accumulates assignment durations (in hours, the Atlas measurement
/// granularity) and produces both the naive PMF and the total-time-fraction
/// distribution.
class TotalTimeFraction {
 public:
  /// Record `count` occurrences of an assignment lasting `hours`.
  void add(std::uint64_t hours, std::uint64_t count = 1) {
    if (hours == 0 || count == 0) return;
    counts_[hours] += count;
    total_hours_ += hours * count;
    total_count_ += count;
  }

  /// Merge another accumulator (e.g. per-probe into per-AS).
  void merge(const TotalTimeFraction& other) {
    for (auto [d, n] : other.counts_) counts_[d] += n;
    total_hours_ += other.total_hours_;
    total_count_ += other.total_count_;
  }

  std::uint64_t total_hours() const { return total_hours_; }
  std::uint64_t total_count() const { return total_count_; }
  bool empty() const { return total_count_ == 0; }

  /// Total time fraction f(d) for a single duration value.
  double fraction(std::uint64_t hours) const {
    if (total_hours_ == 0) return 0.0;
    auto it = counts_.find(hours);
    if (it == counts_.end()) return 0.0;
    return double(it->second) * double(hours) / double(total_hours_);
  }

  /// Cumulative total time fraction at each threshold (fraction of observed
  /// time spent in assignments of duration <= t).
  std::vector<double> cumulative(std::span<const std::uint64_t> thresholds)
      const {
    std::vector<double> out;
    out.reserve(thresholds.size());
    double acc = 0;
    auto it = counts_.begin();
    for (std::uint64_t t : thresholds) {
      while (it != counts_.end() && it->first <= t) {
        acc += double(it->second) * double(it->first);
        ++it;
      }
      out.push_back(total_hours_ ? acc / double(total_hours_) : 0.0);
    }
    return out;
  }

  /// Naive cumulative PMF at each threshold (fraction of *samples* with
  /// duration <= t) — kept for the ablation comparing the two metrics.
  std::vector<double> cumulative_naive(
      std::span<const std::uint64_t> thresholds) const {
    std::vector<double> out;
    out.reserve(thresholds.size());
    double acc = 0;
    auto it = counts_.begin();
    for (std::uint64_t t : thresholds) {
      while (it != counts_.end() && it->first <= t) {
        acc += double(it->second);
        ++it;
      }
      out.push_back(total_count_ ? acc / double(total_count_) : 0.0);
    }
    return out;
  }

  /// The underlying duration histogram (hours -> occurrence count).
  const std::map<std::uint64_t, std::uint64_t>& counts() const {
    return counts_;
  }

  /// Checkpoint layout (io/checkpoint.h): the exact accumulator state.
  template <class Ar>
  void fields(Ar& ar) {
    ar(counts_, total_hours_, total_count_);
  }

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_hours_ = 0;
  std::uint64_t total_count_ = 0;
};

/// The x-axis used by Fig. 1: thresholds from 1 hour to 4 years, in hours.
std::vector<std::uint64_t> fig1_thresholds();

/// Human label for one of the fig1 thresholds ("1h", "3d", "2w", ...).
const char* duration_label(std::uint64_t hours);

}  // namespace dynamips::stats
