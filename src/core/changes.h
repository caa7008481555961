// changes.h — assignment-change detection and duration inference (§3.1).
//
// From an hour-ordered observation series we build "spans": maximal
// stretches during which the reported IPv4 address (or IPv6 /64 network
// component) stayed the same. A change is the boundary between consecutive
// spans. Durations are only measured for spans sandwiched between two
// changes — the first and last spans of a series are censored by the
// observation window and would bias the distribution if counted.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/observations.h"
#include "netaddr/ipv4.h"

namespace dynamips::core {

/// A maximal stretch of identical v4 assignment.
struct Span4 {
  Hour first_seen = 0;
  Hour last_seen = 0;
  net::IPv4Address addr;
};

/// A maximal stretch of identical v6 /64 network component.
struct Span6 {
  Hour first_seen = 0;
  Hour last_seen = 0;
  std::uint64_t net64 = 0;  ///< network component of the reported address
};

/// A v4 change event (boundary between two spans).
struct Change4 {
  Hour at = 0;  ///< first hour the new assignment was observed
  net::IPv4Address prev, next;
};

/// A v6 change event.
struct Change6 {
  Hour at = 0;
  std::uint64_t prev_net64 = 0, next_net64 = 0;
};

struct ChangeOptions {
  /// A duration is trusted only when the measurement gap around both of its
  /// bounding changes is at most this long; longer outages make the change
  /// instant too uncertain (the probe may also have moved).
  Hour max_boundary_gap = 72;
};

std::vector<Span4> extract_spans4(std::span<const Obs4> obs);
std::vector<Span6> extract_spans6(std::span<const Obs6> obs);

std::vector<Change4> extract_changes4(std::span<const Span4> spans);
std::vector<Change6> extract_changes6(std::span<const Span6> spans);

/// A measured duration together with when the assignment began — the
/// "Evolution over time" analysis (§3.2) buckets durations by start year.
struct TimedDuration {
  Hour start = 0;
  Hour duration = 0;
};

/// Call `f(TimedDuration)` for every span sandwiched between two changes
/// whose boundary gaps satisfy `opt`, in span order; the duration of span i
/// is spans[i+1].first_seen - spans[i].first_seen. The functions below
/// collect the same durations into vectors.
template <typename Span, typename F>
void for_each_sandwiched(std::span<const Span> spans, const ChangeOptions& opt,
                         const F& f) {
  for (std::size_t i = 1; i + 1 < spans.size(); ++i) {
    const Hour gap_before = spans[i].first_seen - spans[i - 1].last_seen;
    const Hour gap_after = spans[i + 1].first_seen - spans[i].last_seen;
    if (gap_before > opt.max_boundary_gap || gap_after > opt.max_boundary_gap)
      continue;
    const Hour d = spans[i + 1].first_seen - spans[i].first_seen;
    if (d > 0) f(TimedDuration{spans[i].first_seen, d});
  }
}

/// Exact (hourly-granularity) assignment durations: one entry per span that
/// is sandwiched between two changes whose boundary gaps satisfy `opt`.
/// Duration of span i is spans[i+1].first_seen - spans[i].first_seen.
std::vector<Hour> sandwiched_durations4(std::span<const Span4> spans,
                                        const ChangeOptions& opt = {});

/// Same measurement, keeping each duration's start hour.
std::vector<TimedDuration> sandwiched_timed4(std::span<const Span4> spans,
                                             const ChangeOptions& opt = {});
std::vector<TimedDuration> sandwiched_timed6(std::span<const Span6> spans,
                                             const ChangeOptions& opt = {});

/// Fraction of v4 changes with a v6 change in the same hour (+-window).
/// Returns nullopt when there are no v4 changes to compare. Used for the
/// §3.2 co-occurrence result (90.6% in DTAG, rare in Comcast).
std::optional<double> change_cooccurrence(std::span<const Change4> v4,
                                          std::span<const Change6> v6,
                                          Hour window = 1);

}  // namespace dynamips::core
