// metrics.h — lightweight, thread-aware pipeline observability.
//
// The study pipeline shards work across threads and reduces per-shard
// analyzer state in index order (core/parallel.h). Metrics follow the exact
// same discipline: each shard records into a private `MetricsSink` (no
// locks, no atomics on the hot path), sinks merge pairwise during the
// ordered reduction, and the final sink is absorbed into a process-wide
// `MetricsRegistry` under a mutex. Because metric state is fully separate
// from analyzer state, enabling metrics can never perturb results — and
// every counter/histogram is a shard-order-independent sum, so counts are
// identical for every thread setting (timings, of course, are not).
//
// Value types:
//   Counter    monotonic uint64 sum (thread-invariant; CI-gated)
//   Gauge      last-written double (shard counts, imbalance, peak RSS)
//   Histogram  log10-bucketed uint64 counts, same shape as stats/loghist.h
//   PhaseStats timing aggregate (count / total / min / max nanoseconds)
//   PhaseTimer RAII span recorder feeding a PhaseStats
#pragma once

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dynamips::obs {

/// Monotonic nanosecond clock for phase spans.
inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// Monotonically increasing event count. Sums are associative and
/// commutative, so merged totals are independent of shard count and order.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t n = 1) { value += n; }
  void merge(const Counter& other) { value += other.value; }

  template <class Ar>
  void fields(Ar& ar) {
    ar(value);
  }
};

/// Point-in-time measurement (shard count, imbalance ratio, peak RSS).
/// Merge is last-writer-wins in reduction order; gauges are deliberately
/// excluded from the thread-invariance guarantee.
struct Gauge {
  double value = 0;
  bool set_flag = false;

  void set(double v) {
    value = v;
    set_flag = true;
  }
  void merge(const Gauge& other) {
    if (other.set_flag) {
      value = other.value;
      set_flag = true;
    }
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(value, set_flag);
  }
};

/// Log10-bucketed histogram with integer counts, covering
/// [10^lo_exp, 10^hi_exp) at `bins_per_decade` resolution (the binning
/// shape of stats/loghist.h, with exact uint64 counts so merged bucket
/// sums stay thread-invariant). Out-of-range samples clamp into the
/// first/last bucket.
class Histogram {
 public:
  Histogram() : Histogram(0, 6, 5) {}
  Histogram(double lo_exp, double hi_exp, int bins_per_decade)
      : lo_exp_(lo_exp),
        hi_exp_(hi_exp),
        per_decade_(bins_per_decade),
        buckets_(std::size_t((hi_exp - lo_exp) * bins_per_decade) + 1, 0) {}

  void record(double value, std::uint64_t count = 1) {
    buckets_[bucket_of(value)] += count;
    total_ += count;
  }

  /// Absorb another histogram. Precondition: identical binning.
  void merge(const Histogram& other) {
    assert(buckets_.size() == other.buckets_.size() &&
           lo_exp_ == other.lo_exp_ && per_decade_ == other.per_decade_);
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    total_ += other.total_;
  }

  double lo_exp() const { return lo_exp_; }
  double hi_exp() const { return hi_exp_; }
  int bins_per_decade() const { return per_decade_; }
  std::uint64_t total() const { return total_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  bool operator==(const Histogram& other) const {
    return lo_exp_ == other.lo_exp_ && hi_exp_ == other.hi_exp_ &&
           per_decade_ == other.per_decade_ && total_ == other.total_ &&
           buckets_ == other.buckets_;
  }

  /// Checkpoint layout (io/checkpoint.h): binning parameters plus exact
  /// bucket counts. A load refuses binning that is not finite, spans too
  /// many buckets, or disagrees with the bucket count. The span is checked
  /// before it is converted to a count, since converting an out-of-range
  /// double to an integer is undefined.
  template <class Ar>
  void fields(Ar& ar) {
    ar(lo_exp_, hi_exp_, per_decade_, total_, buckets_);
    const double span = (hi_exp_ - lo_exp_) * per_decade_;
    ar.require(per_decade_ >= 1 && span > 0 && span < kMaxBuckets &&
               buckets_.size() == std::size_t(span) + 1);
  }

 private:
  /// Bucket-count ceiling for loaded binning (the widest histogram in use
  /// has a few dozen buckets).
  static constexpr double kMaxBuckets = 1 << 20;

  std::size_t bucket_of(double value) const {
    if (value < 1e-300) return 0;
    double pos = (std::log10(value) - lo_exp_) * per_decade_;
    if (pos < 0) return 0;
    std::size_t i = std::size_t(pos);
    return i >= buckets_.size() ? buckets_.size() - 1 : i;
  }

  double lo_exp_, hi_exp_;
  int per_decade_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Timing aggregate for one named phase: span count, summed duration, and
/// min/max span. Counts are thread-invariant when spans are recorded per
/// work item; totals and extrema are wall-clock and vary run to run.
struct PhaseStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = UINT64_MAX;
  std::uint64_t max_ns = 0;

  void record(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    if (ns < min_ns) min_ns = ns;
    if (ns > max_ns) max_ns = ns;
  }
  void merge(const PhaseStats& other) {
    count += other.count;
    total_ns += other.total_ns;
    if (other.min_ns < min_ns) min_ns = other.min_ns;
    if (other.max_ns > max_ns) max_ns = other.max_ns;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(count, total_ns, min_ns, max_ns);
  }
};

/// An unsynchronized, shard-local buffer of named metrics. Satisfies the
/// core::MergeableAnalyzer concept (merge + finalize) so a sink rides
/// through the same ordered reduction as the analyzers. References
/// returned by the accessors are stable (node-based map), so hot loops
/// should hoist them out:
///
///   obs::Counter& c = sink.counter("atlas.echo_records");
///   for (...) c.add(n);
class MetricsSink {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates the histogram on first use; later calls (and merges) must use
  /// the same binning.
  Histogram& histogram(std::string_view name, double lo_exp = 0,
                       double hi_exp = 6, int bins_per_decade = 5);
  PhaseStats& phase(std::string_view name);

  /// Absorb another sink (shard reduction). The argument is consumed.
  void merge(MetricsSink&& other);
  /// Remove every metric called `name`, whatever its kind.
  void erase(std::string_view name);
  void finalize() {}

  /// Checkpoint layout (io/checkpoint.h): all four value maps, bit-exact
  /// (gauge doubles round-trip via their bit pattern).
  template <class Ar>
  void fields(Ar& ar) {
    ar(counters_, gauges_, histograms_, phases_);
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           phases_.empty();
  }

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, PhaseStats, std::less<>>& phases() const {
    return phases_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, PhaseStats, std::less<>> phases_;
};

/// RAII span recorder: measures construction-to-stop (or destruction) and
/// records it into a PhaseStats. A null target makes the timer a no-op, so
/// callers can write `PhaseTimer t(enabled ? &stats : nullptr)` and pay
/// nothing when metrics are off.
class PhaseTimer {
 public:
  explicit PhaseTimer(PhaseStats* target)
      : target_(target), start_ns_(target ? now_ns() : 0) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { stop(); }

  void stop() {
    if (!target_) return;
    target_->record(now_ns() - start_ns_);
    target_ = nullptr;
  }

 private:
  PhaseStats* target_;
  std::uint64_t start_ns_;
};

/// Process-wide, mutex-guarded aggregation point. The hot path never
/// touches it: shards record into private MetricsSinks and the pipeline
/// absorbs the reduced sink once per study. Tools/tests may also construct
/// private registries.
class MetricsRegistry {
 public:
  /// The process-wide instance used by the bench harness and study driver.
  static MetricsRegistry& global();

  /// Absorb a sink's contents. Thread-safe; the sink is consumed.
  void merge(MetricsSink&& sink);

  /// Point updates for harness-level metrics (study wall clock, peak RSS).
  void add_counter(std::string_view name, std::uint64_t n);
  void set_gauge(std::string_view name, double value);
  void record_phase(std::string_view name, std::uint64_t ns);

  /// Copy of the current aggregate state.
  MetricsSink snapshot() const;

  bool empty() const;

  /// Drop all recorded metrics (tests; multi-run tools).
  void reset();

 private:
  mutable std::mutex mu_;
  MetricsSink sink_;
};

/// High-water-mark resident set size of this process, in bytes (0 when the
/// platform offers no getrusage equivalent).
std::uint64_t peak_rss_bytes();

}  // namespace dynamips::obs
