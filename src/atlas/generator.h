// generator.h — synthetic RIPE Atlas probe population and IP-echo dataset.
//
// This is the stand-in for the raw Atlas "IP echo" measurements (public
// measurement ids 12027/13027). The generator deploys probes into the ISP
// profiles, samples their subscriber timelines hourly, and injects the
// anomaly classes the paper's Appendix A.1 sanitizes: short-lived probes,
// multihomed probes that alternate between two upstreams, probes whose
// owner switched ISP mid-deployment, probes with disqualifying tags, probes
// not behind a typical NAT, and the RIPE test-address artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "atlas/echo.h"
#include "netaddr/rng.h"
#include "obs/metrics.h"
#include "simnet/isp.h"
#include "simnet/subscriber.h"

namespace dynamips::atlas {

/// What kind of deployment a probe has; ground truth for sanitizer tests.
enum class ProbeRole : std::uint8_t {
  kNormal,      ///< typical residential deployment
  kShortLived,  ///< observed for < 1 month (filtered by duration rule)
  kMultihomed,  ///< alternates between two upstream ISPs (filtered)
  kAsSwitch,    ///< moved to a different ISP mid-life (split into virtuals)
  kBadTag,      ///< tagged datacentre/core/system-anchor (filtered)
  kPublicSrc,   ///< v4 src_addr is public, not RFC 1918 (filtered)
};

struct AtlasConfig {
  Hour window_hours = 30000;    ///< observation window (~3.4 years)
  double probe_scale = 1.0;     ///< multiply Table-1 probe counts
  std::uint64_t seed = 1;
  double short_lived_share = 0.08;
  double multihomed_share = 0.03;
  double as_switch_share = 0.04;
  double bad_tag_share = 0.02;
  double public_src_share = 0.02;
  double test_addr_share = 0.25;  ///< probes whose history starts with the
                                  ///< RIPE test address
  double hourly_presence = 0.97;  ///< per-hour measurement success rate
  /// Share of probes reporting a stable EUI-64 IID (Atlas probes are
  /// intended to be stable measurement targets); the rest rotate privacy
  /// IIDs daily, exercising the §2.3 tracking analyses.
  double eui64_share = 0.85;
};

/// Ground-truth description of one deployed probe.
struct ProbeInfo {
  std::uint32_t probe_id = 0;
  std::size_t isp_index = 0;        ///< index into isps()
  std::size_t second_isp_index = 0; ///< for multihomed / AS-switch probes
  ProbeRole role = ProbeRole::kNormal;
  Hour join = 0;
  Hour leave = 0;
  Hour switch_hour = 0;             ///< for kAsSwitch
  bool starts_with_test_addr = false;
  bool privacy_iid = false;         ///< rotates RFC 4941 IIDs daily
  std::uint64_t probe_iid = 0;      ///< stable EUI-64 IID (when !privacy_iid)
};

/// Deterministic Atlas dataset generator. Per-probe output depends only on
/// (config, isps, probe index), so probes can be generated and analyzed one
/// at a time without materialising the whole dataset.
///
/// Thread safety: after construction the simulator is immutable, and every
/// probe draws from its own RNG stream derived via net::mix_seed from
/// (seed, probe_id) — `series_for` / `timeline_for` may be called
/// concurrently from any number of shards for any index partitioning.
class AtlasSimulator {
 public:
  AtlasSimulator(std::vector<simnet::IspProfile> isps, AtlasConfig config);

  std::size_t probe_count() const { return probes_.size(); }
  const ProbeInfo& probe(std::size_t idx) const { return probes_[idx]; }
  const std::vector<simnet::IspProfile>& isps() const { return isps_; }
  const AtlasConfig& config() const { return config_; }

  /// Generate the full hourly measurement series of one probe.
  ProbeSeries series_for(std::size_t idx) const;
  /// series_for() into `series`, reusing its records' capacity, so a
  /// caller generating probe after probe allocates (and the allocator
  /// maps) the record buffer once instead of once per probe.
  void fill_series(std::size_t idx, ProbeSeries& series) const;

  /// Ground-truth subscriber timeline backing a probe (its primary ISP).
  simnet::SubscriberTimeline timeline_for(std::size_t idx) const;

  /// Export the deployed population as "atlas.gen.*" counters (per-role
  /// anomaly counts, privacy-IID and test-address shares), so a metrics
  /// document shows what the generator injected next to what the
  /// sanitizer filtered. Pure function of the config — thread-invariant.
  void publish_metrics(obs::MetricsSink& sink) const;

 private:
  // Append one role's echo records of `info` to `out`.
  void normal_records(const ProbeInfo& info,
                      std::vector<EchoRecord>& out) const;
  void multihomed_records(const ProbeInfo& info,
                          std::vector<EchoRecord>& out) const;
  void as_switch_records(const ProbeInfo& info,
                         std::vector<EchoRecord>& out) const;
  std::uint64_t iid_at(const ProbeInfo& info, Hour h) const;
  void emit_hours(const ProbeInfo& info,
                  const simnet::SubscriberTimeline& tl, Hour from, Hour to,
                  bool test_addr_head, net::Rng& rng,
                  std::vector<EchoRecord>& out) const;

  std::vector<simnet::IspProfile> isps_;
  AtlasConfig config_;
  std::vector<ProbeInfo> probes_;
  std::vector<simnet::TimelineGenerator> generators_;
};

}  // namespace dynamips::atlas
