#include "cdn/generator.h"

#include <algorithm>
#include <cassert>

namespace dynamips::cdn {

using bgp::Registry;
using net::Prefix4;
using net::Prefix6;
using net::Rng;
using simnet::Hour;
using simnet::IspProfile;
using simnet::kHoursPerDay;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t id) {
  return net::mix_seed(seed ^ (0xda942042e4dd58b5ull * (id + 0x9dull)));
}

template <typename Seg>
const Seg* segment_at(const std::vector<Seg>& segs, Hour h) {
  auto it = std::upper_bound(
      segs.begin(), segs.end(), h,
      [](Hour hh, const Seg& s) { return hh < s.start; });
  if (it == segs.begin()) return nullptr;
  --it;
  return h < it->end ? &*it : nullptr;
}

// Generic fixed-line ISP for a registry, calibrated to the Fig. 3 duration
// boxes and the Fig. 7 delegated-length mixes.
IspProfile registry_fixed(const char* name, bgp::Asn asn, Registry reg,
                          const char* v4block, const char* v6block,
                          double static_share, double mean_admin_hours,
                          std::vector<simnet::DelegationPolicy::Entry> mix) {
  IspProfile p;
  p.name = name;
  p.asn = asn;
  p.registry = reg;
  p.bgp4 = {*Prefix4::parse(v4block)};
  p.bgp6 = {*Prefix6::parse(v6block)};
  simnet::ChangePolicy pol{.lease_hours = 0, .renew_keep_prob = 0,
                           .mean_admin_hours = mean_admin_hours,
                           .outages_per_year = 3,
                           .change_on_outage_prob = 0.3};
  p.v4_nds = pol;
  p.v4_ds = pol;
  p.v6 = pol;
  p.dualstack_share = 1.0;  // CDN associations only exist for dual-stack
  p.static_share = static_share;
  p.couple_v6_to_v4 = 0.8;  // association breaks when either side changes
  p.p_same24 = 0.3;
  p.p_same_bgp4 = 1.0;
  p.v6_pool_len = 40;
  p.p_same_bgp6 = 1.0;
  p.home_pool_count = 1;
  p.delegation.entries = std::move(mix);
  return p;
}

// Cellular operator: CGNAT egress /24s on the v4 side, per-UE /64 with
// (typically) daily renumbering on the v6 side.
IspProfile registry_mobile(const char* name, bgp::Asn asn, Registry reg,
                           const char* v4block, const char* v6block,
                           double keep_prob) {
  IspProfile p;
  p.name = name;
  p.asn = asn;
  p.registry = reg;
  p.mobile = true;
  p.bgp4 = {*Prefix4::parse(v4block)};  // small egress pool (few /24s)
  p.bgp6 = {*Prefix6::parse(v6block)};
  simnet::ChangePolicy daily{.lease_hours = 24, .renew_keep_prob = keep_prob,
                             .mean_admin_hours = 0, .outages_per_year = 12,
                             .change_on_outage_prob = 0.9};
  p.v4_nds = daily;
  p.v4_ds = daily;
  p.v6 = daily;
  p.dualstack_share = 1.0;
  p.static_share = 0.02;
  p.couple_v6_to_v4 = 0.75;  // most PDP teardowns renumber both sides
  p.p_same24 = 0.3;
  p.p_same_bgp4 = 1.0;
  p.v6_pool_len = 40;
  p.p_same_bgp6 = 1.0;
  p.home_pool_count = 1;
  p.delegation.entries = {{64, 1.0}};  // §5.3: mobile UEs get /64s
  return p;
}

}  // namespace

IspProfile shrink_v4_for_cdn(IspProfile isp, int len) {
  for (auto& p : isp.bgp4)
    if (p.length() < len) p = Prefix4{p.address(), len};
  return isp;
}

namespace {

// Block length so that `subscribers` spread over the resulting /24s at a
// density near the paper's ~180 RUM-active addresses per /24 (Fig. 4b).
int v4_block_len_for(double subscribers, int announcements,
                     double density_target) {
  double per_ann = subscribers / double(announcements);
  int n24 = 1;
  while (n24 * 2 <= int(per_ann / density_target + 0.5)) n24 *= 2;
  int len = 24;
  for (int b = n24; b > 1; b /= 2) --len;
  return len < 16 ? 16 : len;
}

}  // namespace

std::vector<PopulationEntry> default_cdn_population(double subscriber_scale) {
  std::vector<PopulationEntry> pop;

  // Table-1 fixed ISPs, shrunk to the pool subset the CDN would observe as
  // RUM-active, sized to realistic per-/24 densities.
  struct Pick {
    const char* name;
    int subscribers;
  };
  for (Pick pick : std::initializer_list<Pick>{{"DTAG", 2000},
                                               {"Orange", 2500},
                                               {"Comcast", 4000},
                                               {"LGI", 2500},
                                               {"BT", 2500},
                                               {"Proximus", 1500}}) {
    auto isp = simnet::find_isp(pick.name);
    assert(isp.has_value());
    if (pick.name == std::string("DTAG")) {
      // The CDN's DTAG population is broad: dual-stack households on the
      // ~weekly track dominate, unlike the Atlas probe sample (Fig. 2's
      // DTAG median is about one week).
      isp->ds_uses_nds_share = 0.0;
      isp->v4_ds.renew_keep_prob = 0.85;
      isp->v6 = {.lease_hours = 0, .renew_keep_prob = 0,
                 .mean_admin_hours = 8000, .outages_per_year = 4,
                 .change_on_outage_prob = 0.3};
    }
    // Renumbering ISPs spread subscribers across more /24s, so their
    // per-/24 subscriber density is lower at equal degree.
    int len = v4_block_len_for(double(pick.subscribers) * subscriber_scale,
                               int(isp->bgp4.size()), 30.0);
    pop.push_back({shrink_v4_for_cdn(*isp, len), pick.subscribers});
  }

  // Per-registry generic fixed populations (Fig. 3 / Fig. 7 calibration).
  using E = simnet::DelegationPolicy::Entry;
  struct FixedSpec {
    const char* name;
    bgp::Asn asn;
    Registry reg;
    const char* v4;
    const char* v6;
    double static_share;
    double admin;
    std::vector<E> mix;
    int subscribers;
  };
  const FixedSpec fixed_specs[] = {
      {"ARIN-fixed", 70100, Registry::kArin, "173.16.0.0/16",
       "2600:4000::/24", 0.60, 10000,
       {E{60, 0.30}, E{56, 0.27}, E{64, 0.41}, E{48, 0.02}}, 20000},
      {"RIPE-fixed", 70200, Registry::kRipe, "151.16.0.0/16",
       "2a0e:4000::/24", 0.45, 6500,
       {E{56, 0.62}, E{60, 0.10}, E{48, 0.06}, E{64, 0.22}}, 20000},
      {"APNIC-fixed", 70300, Registry::kApnic, "118.16.0.0/16",
       "2403:4000::/24", 0.45, 6000,
       {E{56, 0.30}, E{60, 0.14}, E{48, 0.10}, E{64, 0.46}}, 18000},
      {"LACNIC-fixed", 70400, Registry::kLacnic, "186.16.0.0/16",
       "2800:4000::/24", 0.40, 5500,
       {E{64, 0.85}, E{56, 0.10}, E{60, 0.05}}, 14000},
      {"AFRINIC-fixed", 70500, Registry::kAfrinic, "105.16.0.0/16",
       "2c0f:4000::/24", 0.45, 6000,
       {E{56, 0.65}, E{60, 0.10}, E{48, 0.08}, E{64, 0.17}}, 10000},
  };
  for (const auto& spec : fixed_specs) {
    IspProfile isp = registry_fixed(spec.name, spec.asn, spec.reg, spec.v4,
                                    spec.v6, spec.static_share, spec.admin,
                                    spec.mix);
    int len = v4_block_len_for(double(spec.subscribers) * subscriber_scale,
                               int(isp.bgp4.size()), 90.0);
    pop.push_back({shrink_v4_for_cdn(std::move(isp), len),
                   spec.subscribers});
  }

  // Cellular operators: one per registry plus EE Ltd, the RIPE outlier with
  // address durations reaching ~50 days (§4.2).
  pop.push_back({registry_mobile("ARIN-mobile", 71100, Registry::kArin,
                                 "172.56.0.0/22", "2607:fb90::/28", 0.22),
                 6000});
  pop.push_back({registry_mobile("RIPE-mobile", 71200, Registry::kRipe,
                                 "92.40.0.0/22", "2a01:4c80::/28", 0.30),
                 1000});
  // EE Ltd: the RIPE mobile outlier with durations reaching ~50 days; its
  // weight is what drags the RIPE-mobile 75th percentile to ~22 days.
  pop.push_back({registry_mobile("EE Ltd", 12576, Registry::kRipe,
                                 "31.64.0.0/22", "2a00:23a0::/28", 0.97),
                 20000});
  pop.push_back({registry_mobile("APNIC-mobile", 71300, Registry::kApnic,
                                 "110.224.0.0/22", "2409:4000::/28", 0.20),
                 6000});
  pop.push_back({registry_mobile("LACNIC-mobile", 71400, Registry::kLacnic,
                                 "187.228.0.0/22", "2806:2000::/28", 0.18),
                 5000});
  pop.push_back({registry_mobile("AFRINIC-mobile", 71500, Registry::kAfrinic,
                                 "197.210.0.0/22", "2c0f:f000::/28", 0.20),
                 4000});
  return pop;
}

CdnSimulator::CdnSimulator(std::vector<PopulationEntry> population,
                           CdnConfig config)
    : population_(std::move(population)), config_(config) {
  generators_.reserve(population_.size());
  for (std::size_t i = 0; i < population_.size(); ++i)
    generators_.emplace_back(population_[i].isp,
                             config_.seed * 2654435761ull + i);
}

std::unordered_set<bgp::Asn> CdnSimulator::mobile_asns() const {
  std::unordered_set<bgp::Asn> out;
  for (const auto& e : population_)
    if (e.isp.mobile) out.insert(e.isp.asn);
  return out;
}

int CdnSimulator::scaled_subscribers(std::size_t idx) const {
  return std::max(
      1, int(double(population_[idx].subscribers) * config_.subscriber_scale));
}

namespace {

// Mobile devices touch CDN-hosted content several times a day, which is
// what lets a /64 witness a mid-day CGNAT egress change (§4.3's 13% of
// mobile /64s with more than one /24).
int samples_per_day(bool mobile) { return mobile ? 3 : 1; }

}  // namespace

std::uint64_t CdnSimulator::daily_samples(std::size_t idx) const {
  return std::uint64_t(scaled_subscribers(idx)) *
         std::uint64_t(samples_per_day(population_[idx].isp.mobile));
}

void CdnSimulator::publish_metrics(obs::MetricsSink& sink) const {
  std::uint64_t mobile_entries = 0, subscribers = 0;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (population_[i].isp.mobile) ++mobile_entries;
    subscribers += std::uint64_t(scaled_subscribers(i));
  }
  sink.counter("cdn.gen.population_entries").add(population_.size());
  sink.counter("cdn.gen.mobile_entries").add(mobile_entries);
  sink.counter("cdn.gen.subscribers").add(subscribers);
}

AssociationLog CdnSimulator::generate(std::size_t entry_idx) const {
  const PopulationEntry& entry = population_[entry_idx];
  AssociationLog log;
  log.asn = entry.isp.asn;
  log.mobile = entry.isp.mobile;
  log.registry = entry.isp.registry;

  const int subscribers = scaled_subscribers(entry_idx);
  Hour window = Hour(config_.days) * kHoursPerDay;

  // Noise source: pair with a mobile entry when available (phones switching
  // from WiFi to cellular mid-visit), else with the next entry.
  std::size_t noise_idx = entry_idx;
  for (std::size_t i = 0; i < population_.size(); ++i)
    if (i != entry_idx && population_[i].isp.mobile) noise_idx = i;
  if (noise_idx == entry_idx && population_.size() > 1)
    noise_idx = (entry_idx + 1) % population_.size();

  Rng rng(mix(config_.seed, 0xc0ffee + entry_idx));
  for (int sub = 0; sub < subscribers; ++sub) {
    auto tl = generators_[entry_idx].generate(std::uint32_t(sub), 0, window);
    if (!tl.dual_stack) continue;
    simnet::SubscriberTimeline noise_tl;
    bool have_noise = false;
    const int per_day = samples_per_day(entry.isp.mobile);
    for (int day = 0; day < config_.days; ++day) {
      for (int slot = 0; slot < per_day; ++slot) {
      if (!rng.bernoulli(config_.daily_activity)) continue;
      Hour slot_len = kHoursPerDay / Hour(per_day);
      Hour h = Hour(day) * kHoursPerDay + Hour(slot) * slot_len +
               rng.uniform(slot_len);
      const auto* s6 = segment_at(tl.v6, h);
      if (!s6) continue;

      AssociationRecord rec;
      rec.day = std::uint32_t(day);
      rec.subscriber = std::uint32_t(sub);
      rec.v6_64 =
          Prefix6{net::IPv6Address{s6->lan64, 0}, 64};
      rec.asn6 = entry.isp.asn;

      if (noise_idx != entry_idx &&
          rng.bernoulli(config_.cross_network_noise)) {
        // v4 observed via another network: ASN mismatch, filtered later.
        if (!have_noise) {
          noise_tl = generators_[noise_idx].generate(
              std::uint32_t(sub) ^ 0x77770000u, 0, window);
          have_noise = true;
        }
        const auto* n4 = segment_at(noise_tl.v4, h);
        if (!n4) continue;
        rec.v4_24 = net::slash24_of(n4->addr);
        rec.asn4 = population_[noise_idx].isp.asn;
      } else {
        const auto* s4 = segment_at(tl.v4, h);
        if (!s4) continue;
        rec.v4_24 = net::slash24_of(s4->addr);
        rec.asn4 = entry.isp.asn;
      }
      log.records.push_back(rec);
      }
    }
  }
  std::sort(log.records.begin(), log.records.end(),
            [](const AssociationRecord& a, const AssociationRecord& b) {
              return a.day < b.day;
            });
  return log;
}

}  // namespace dynamips::cdn
