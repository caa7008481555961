// generator.h — synthetic CDN RUM association dataset.
//
// Stands in for the proprietary 32.7-billion-tuple CDN dataset. The
// population combines the Table-1 fixed-line ISPs (shrunk to the pool
// subset the CDN would observe as RUM-active), per-registry generic fixed
// ISPs calibrated to Fig. 3/Fig. 7, and per-registry cellular operators
// (CGNAT egress pools, per-UE /64s, daily renumbering — plus EE Ltd, the
// long-duration mobile outlier the paper singles out).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cdn/rum.h"
#include "obs/metrics.h"
#include "simnet/isp.h"
#include "simnet/subscriber.h"

namespace dynamips::cdn {

struct CdnConfig {
  int days = 150;                 ///< Jan 1 – Jun 1 window of the paper
  double subscriber_scale = 1.0;  ///< multiply per-ISP population sizes
  std::uint64_t seed = 7;
  /// Probability a subscriber produces an association on a given day.
  double daily_activity = 0.6;
  /// Probability an association pairs the v6 side with a v4 address from a
  /// different network (smartphone switching between WiFi and cellular);
  /// removed by the ASN-match filter.
  double cross_network_noise = 0.01;
};

/// One ISP's share of the CDN-visible population.
struct PopulationEntry {
  simnet::IspProfile isp;
  int subscribers = 0;
};

/// The default population: Table-1 ISPs + per-registry fixed and mobile
/// operators. Counts are pre-scale baselines; pass the same
/// `subscriber_scale` as CdnConfig so fixed-line v4 pools are sized to the
/// ~180 RUM-active subscribers per /24 the paper observes (Fig. 4b) at any
/// scale.
std::vector<PopulationEntry> default_cdn_population(
    double subscriber_scale = 1.0);

/// Restrict an ISP's v4 announcements to the leading /`len` of each block —
/// the RUM-active pool subset — so per-/24 degrees match CDN visibility.
simnet::IspProfile shrink_v4_for_cdn(simnet::IspProfile isp, int len);

/// Deterministic association-log generator. Logs are produced one ISP at a
/// time so the multi-billion-tuple scale of the real dataset can be
/// mirrored by streaming aggregation.
///
/// Thread safety: after construction the simulator is immutable, and each
/// entry's log draws from its own RNG stream derived via net::mix_seed from
/// (seed, entry index) — `generate` may be called concurrently from any
/// number of shards for any index partitioning.
class CdnSimulator {
 public:
  CdnSimulator(std::vector<PopulationEntry> population, CdnConfig config);

  std::size_t entry_count() const { return population_.size(); }
  const PopulationEntry& entry(std::size_t idx) const {
    return population_[idx];
  }
  const CdnConfig& config() const { return config_; }

  /// All association records of one population entry over the window,
  /// including cross-network noise tuples (asn4 != asn6).
  AssociationLog generate(std::size_t entry_idx) const;

  /// Sample slots per day across entry `idx`'s subscribers: its
  /// post-scale subscriber count times 3 for a mobile network, 1 for a
  /// fixed one. Proportional to the log's expected tuple count, so it is
  /// the pipeline's cost estimate for generating and analyzing the log.
  std::uint64_t daily_samples(std::size_t idx) const;

  /// ASNs of the cellular operators in this population — the stand-in for
  /// the Rula et al. cellular-prefix identification the paper uses.
  std::unordered_set<bgp::Asn> mobile_asns() const;

  /// Export the population shape as "cdn.gen.*" counters (entries, mobile
  /// entries, effective post-scale subscribers). Thread-invariant.
  void publish_metrics(obs::MetricsSink& sink) const;

 private:
  std::vector<PopulationEntry> population_;
  CdnConfig config_;
  std::vector<simnet::TimelineGenerator> generators_;

  int scaled_subscribers(std::size_t idx) const;
};

}  // namespace dynamips::cdn
