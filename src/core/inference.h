// inference.h — subscriber- and pool-boundary inference (§5.2, §5.3).
//
// Two techniques from the paper:
//  * "Finding the zero bits": the bits immediately upstream of the /64
//    boundary that are zero in every /64 a subscriber was observed with
//    reveal the length of the ISP-delegated prefix (a CPE that zero-fills
//    announces the lowest /64 of its delegation). Fig. 6 / Fig. 9 apply
//    this per RIPE Atlas probe; Fig. 7 applies a nibble-rounded variant to
//    each /64 seen at the CDN.
//  * Pool-boundary inference: the longest prefix that still covers the bulk
//    of a subscriber's assignments identifies the ISP's dynamic address
//    pool (typically a /40, §5.2).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "bgp/rib.h"
#include "core/changes.h"
#include "core/sanitize.h"
#include "stats/flatmap.h"

namespace dynamips::core {

/// Result of the per-probe zero-bits inference.
struct SubscriberInference {
  int inferred_len = 64;  ///< inferred delegated prefix length
  int changes = 0;        ///< v6 changes the inference is based on

  template <class Ar>
  void fields(Ar& ar) {
    ar(inferred_len, changes);
  }
};

/// Infer the delegated prefix length of the subscriber behind `probe` from
/// the trailing zero bits common to every observed /64. Requires at least
/// one v6 assignment change (mirroring Fig. 6's probe selection); returns
/// nullopt otherwise. CPEs that scramble or use constant non-zero subnet
/// ids produce /64 (an overestimate), as discussed in §5.3.
std::optional<SubscriberInference> infer_subscriber_prefix(
    const CleanProbe& probe);

/// Span-based variant so callers that already extracted the probe's /64
/// spans (e.g. InferenceCollector::add, which runs both inferences) do not
/// extract them twice.
std::optional<SubscriberInference> infer_subscriber_prefix(
    std::span<const Span6> spans);

/// Result of the pool-boundary inference.
struct PoolInference {
  int pool_len = 0;     ///< inferred pool prefix length (e.g. 40)
  double coverage = 0;  ///< share of assignments inside the dominant pool

  template <class Ar>
  void fields(Ar& ar) {
    ar(pool_len, coverage);
  }
};

/// Infer the ISP's dynamic-pool prefix length for this subscriber: the
/// longest (most specific) prefix length whose dominant prefix still covers
/// at least `min_coverage` of the probe's v6 assignments. Requires at least
/// `min_changes` changes for statistical footing.
std::optional<PoolInference> infer_pool(const CleanProbe& probe,
                                        double min_coverage = 0.8,
                                        int min_changes = 5);

/// Span-based variant (see infer_subscriber_prefix above).
std::optional<PoolInference> infer_pool(std::span<const Span6> spans,
                                        double min_coverage = 0.8,
                                        int min_changes = 5);

/// CDN-side nibble classification of one /64's trailing zeros (Fig. 7).
/// Streaks of 16+ zero bits classify as the /48 boundary, 12..15 as /52,
/// 8..11 as /56, 4..7 as /60; fewer than 4 zero bits are uninferable.
enum class ZeroBoundary : std::uint8_t { kNone, k60, k56, k52, k48 };

ZeroBoundary classify_trailing_zeros(std::uint64_t net64);

/// Printable label ("/56") for a boundary; "none" for kNone.
const char* zero_boundary_name(ZeroBoundary b);

/// Per-population tally of zero-boundary classes (one counter per class).
struct ZeroBoundaryCounts {
  std::array<std::uint64_t, 5> counts{};  // indexed by ZeroBoundary

  void add(ZeroBoundary b) { ++counts[std::size_t(b)]; }
  /// Absorb another tally (shard reduction); plain per-class sums.
  void merge(const ZeroBoundaryCounts& o) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
  }
  /// Share of addresses with an inferable delegation (any zero boundary).
  double inferable_fraction() const {
    std::uint64_t t = total();
    return t ? double(t - counts[0]) / double(t) : 0.0;
  }
  double fraction(ZeroBoundary b) const {
    std::uint64_t t = total();
    return t ? double(counts[std::size_t(b)]) / double(t) : 0.0;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(counts);
  }
};

/// Finalized view of an InferenceCollector: both per-probe inference
/// result sets as the std::map the study structs expose. A plain value —
/// copyable, default-constructible, independent of the collector it was
/// snapshotted from.
struct InferenceSnapshot {
  std::map<bgp::Asn, std::vector<SubscriberInference>> subscriber;
  std::map<bgp::Asn, std::vector<PoolInference>> pools;
};

/// Streaming per-AS collector running both per-probe inferences — the sink
/// the pipeline feeds cleaned probes into (core/parallel.h concept). The
/// per-AS vectors are append-ordered by probe, so shards merged in index
/// order reproduce the serial ordering exactly.
class InferenceCollector {
 public:
  void add(const ProbeSpans& probe);
  void add(const CleanProbe& probe) { add(CleanSpans(probe).view()); }
  void merge(InferenceCollector&& other);
  void finalize() {}

  /// Checkpoint layout (io/checkpoint.h).
  template <class Ar>
  void fields(Ar& ar) {
    ar(subscriber_, pool_);
  }

  const stats::FlatMap<bgp::Asn, std::vector<SubscriberInference>>&
  subscriber() const {
    return subscriber_;
  }
  const stats::FlatMap<bgp::Asn, std::vector<PoolInference>>& pools() const {
    return pool_;
  }

  /// Copy the collected results out without consuming the accumulator
  /// (core/parallel.h SnapshotAnalyzer; replaces the former consuming
  /// take_subscriber/take_pools pair). FlatMap iterates ASNs ascending, so
  /// this is a linear in-order std::map build; the collector keeps
  /// appending per-probe results afterwards.
  InferenceSnapshot snapshot() const {
    InferenceSnapshot out;
    for (const auto& [asn, results] : subscriber_)
      out.subscriber.emplace(asn, results);
    for (const auto& [asn, results] : pool_) out.pools.emplace(asn, results);
    return out;
  }

 private:
  stats::FlatMap<bgp::Asn, std::vector<SubscriberInference>> subscriber_;
  stats::FlatMap<bgp::Asn, std::vector<PoolInference>> pool_;
};

}  // namespace dynamips::core
