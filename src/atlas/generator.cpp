#include "atlas/generator.h"

#include <algorithm>
#include <cassert>

#include "netaddr/iid.h"

namespace dynamips::atlas {

using net::IPv4Address;
using net::IPv6Address;
using net::Rng;
using simnet::Assignment4;
using simnet::Assignment6;
using simnet::SubscriberTimeline;

net::IPv4Address ripe_test_address() {
  return *IPv4Address::parse("193.0.0.78");
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t id) {
  return net::mix_seed(seed ^ (0x9e3779b97f4a7c15ull * (id + 0x51ull)));
}

// Find the assignment active at hour h (segments are sorted, contiguous).
template <typename Seg>
const Seg* segment_at(const std::vector<Seg>& segs, simnet::Hour h) {
  auto it = std::upper_bound(
      segs.begin(), segs.end(), h,
      [](simnet::Hour hh, const Seg& s) { return hh < s.start; });
  if (it == segs.begin()) return nullptr;
  --it;
  return h < it->end ? &*it : nullptr;
}

}  // namespace

AtlasSimulator::AtlasSimulator(std::vector<simnet::IspProfile> isps,
                               AtlasConfig config)
    : isps_(std::move(isps)), config_(config) {
  assert(!isps_.empty());
  generators_.reserve(isps_.size());
  for (std::size_t i = 0; i < isps_.size(); ++i)
    generators_.emplace_back(isps_[i], config_.seed * 1315423911ull + i);

  // Deploy probes: Table-1 counts per ISP, scaled.
  std::uint32_t next_id = 10000;
  Rng rng(mix(config_.seed, 0xa71a5));
  for (std::size_t isp_idx = 0; isp_idx < isps_.size(); ++isp_idx) {
    int count = std::max(
        1, int(double(isps_[isp_idx].atlas_probes) * config_.probe_scale));
    for (int k = 0; k < count; ++k) {
      ProbeInfo info;
      info.probe_id = next_id++;
      info.isp_index = isp_idx;
      info.second_isp_index = isp_idx;
      info.privacy_iid = !rng.bernoulli(config_.eui64_share);
      info.probe_iid = net::eui64_iid(net::Mac::random(rng));

      // Role assignment: consume shares of the unit interval in order.
      double roll = rng.uniform_real();
      auto take = [&roll](double share) {
        if (roll < share) return true;
        roll -= share;
        return false;
      };
      if (take(config_.short_lived_share)) {
        info.role = ProbeRole::kShortLived;
      } else if (take(config_.multihomed_share)) {
        info.role = ProbeRole::kMultihomed;
      } else if (take(config_.as_switch_share)) {
        info.role = ProbeRole::kAsSwitch;
      } else if (take(config_.bad_tag_share)) {
        info.role = ProbeRole::kBadTag;
      } else if (take(config_.public_src_share)) {
        info.role = ProbeRole::kPublicSrc;
      } else {
        info.role = ProbeRole::kNormal;
      }
      if (info.role == ProbeRole::kMultihomed ||
          info.role == ProbeRole::kAsSwitch) {
        if (isps_.size() > 1) {
          std::size_t other = std::size_t(rng.uniform(isps_.size() - 1));
          if (other >= isp_idx) ++other;
          info.second_isp_index = other;
        } else {
          info.role = ProbeRole::kNormal;
        }
      }

      // Deployment window.
      Hour w = config_.window_hours;
      if (info.role == ProbeRole::kShortLived) {
        info.join = Hour(rng.uniform(w > 800 ? w - 800 : 1));
        info.leave = info.join + 24 + Hour(rng.uniform(24 * 29));  // < 1 month
      } else {
        info.join = Hour(rng.uniform(w / 2));
        // Most probes stay to the end; some leave earlier.
        if (rng.bernoulli(0.7)) {
          info.leave = w;
        } else {
          Hour min_life = 24 * 40;
          Hour span = w - info.join;
          info.leave =
              info.join +
              std::max<Hour>(min_life, Hour(rng.uniform(span > 0 ? span : 1)));
          info.leave = std::min(info.leave, w);
        }
      }
      if (info.role == ProbeRole::kAsSwitch) {
        Hour life = info.leave - info.join;
        info.switch_hour = info.join + life / 4 + Hour(rng.uniform(life / 2));
      }
      info.starts_with_test_addr = rng.bernoulli(config_.test_addr_share);
      probes_.push_back(info);
    }
  }
}

SubscriberTimeline AtlasSimulator::timeline_for(std::size_t idx) const {
  const ProbeInfo& info = probes_[idx];
  return generators_[info.isp_index].generate(info.probe_id, info.join,
                                              info.leave);
}

void AtlasSimulator::publish_metrics(obs::MetricsSink& sink) const {
  std::uint64_t by_role[6] = {};
  std::uint64_t privacy = 0, test_addr = 0;
  for (const ProbeInfo& info : probes_) {
    ++by_role[std::size_t(info.role)];
    if (info.privacy_iid) ++privacy;
    if (info.starts_with_test_addr) ++test_addr;
  }
  sink.counter("atlas.gen.probes").add(probes_.size());
  sink.counter("atlas.gen.role_normal")
      .add(by_role[std::size_t(ProbeRole::kNormal)]);
  sink.counter("atlas.gen.role_short_lived")
      .add(by_role[std::size_t(ProbeRole::kShortLived)]);
  sink.counter("atlas.gen.role_multihomed")
      .add(by_role[std::size_t(ProbeRole::kMultihomed)]);
  sink.counter("atlas.gen.role_as_switch")
      .add(by_role[std::size_t(ProbeRole::kAsSwitch)]);
  sink.counter("atlas.gen.role_bad_tag")
      .add(by_role[std::size_t(ProbeRole::kBadTag)]);
  sink.counter("atlas.gen.role_public_src")
      .add(by_role[std::size_t(ProbeRole::kPublicSrc)]);
  sink.counter("atlas.gen.privacy_iid_probes").add(privacy);
  sink.counter("atlas.gen.test_addr_probes").add(test_addr);
}

ProbeSeries AtlasSimulator::series_for(std::size_t idx) const {
  ProbeSeries series;
  fill_series(idx, series);
  return series;
}

void AtlasSimulator::fill_series(std::size_t idx, ProbeSeries& series) const {
  const ProbeInfo& info = probes_[idx];
  series.records.clear();
  switch (info.role) {
    case ProbeRole::kMultihomed:
      multihomed_records(info, series.records);
      break;
    case ProbeRole::kAsSwitch:
      as_switch_records(info, series.records);
      break;
    default:
      normal_records(info, series.records);
      break;
  }
  series.meta.probe_id = info.probe_id;
  static const core::TagId kHome = core::tag_pool().intern("home");
  series.meta.tags = {kHome};
  if (info.role == ProbeRole::kBadTag) {
    static const core::TagId kBad[] = {
        core::tag_pool().intern("datacentre"),
        core::tag_pool().intern("core"),
        core::tag_pool().intern("system-anchor"),
        core::tag_pool().intern("multihomed")};
    series.meta.tags.push_back(kBad[info.probe_id % 4]);
  }
}

void AtlasSimulator::emit_hours(const ProbeInfo& info,
                                const SubscriberTimeline& tl, Hour from,
                                Hour to, bool test_addr_head, Rng& rng,
                                std::vector<EchoRecord>& out) const {
  // Private-side address of the probe behind the CPE NAT.
  IPv4Address private_src = IPv4Address::from_octets(
      192, 168, 1, std::uint8_t(2 + info.probe_id % 250));
  bool public_src = info.role == ProbeRole::kPublicSrc;

  for (Hour h = from; h < to; ++h) {
    if (!rng.bernoulli(config_.hourly_presence)) continue;
    const Assignment4* s4 = segment_at(tl.v4, h);
    if (s4) {
      EchoRecord r;
      r.probe_id = info.probe_id;
      r.hour = h;
      r.family = Family::kV4;
      r.x_client_ip4 =
          (test_addr_head && h < from + 3) ? ripe_test_address() : s4->addr;
      r.src_addr4 = public_src ? r.x_client_ip4 : private_src;
      out.push_back(r);
    }
    if (tl.dual_stack) {
      const Assignment6* s6 = segment_at(tl.v6, h);
      if (s6) {
        EchoRecord r;
        r.probe_id = info.probe_id;
        r.hour = h;
        r.family = Family::kV6;
        r.x_client_ip6 = IPv6Address{s6->lan64, iid_at(info, h)};
        r.src_addr6 = r.x_client_ip6;
        out.push_back(r);
      }
    }
  }
}

std::uint64_t AtlasSimulator::iid_at(const ProbeInfo& info, Hour h) const {
  if (!info.privacy_iid) return info.probe_iid;
  // RFC 4941 temporary IID, rotated daily: deterministic per (probe, day).
  return net::stable_opaque_iid(info.probe_iid ^ config_.seed,
                                simnet::day_of(h));
}

void AtlasSimulator::normal_records(const ProbeInfo& info,
                                    std::vector<EchoRecord>& out) const {
  SubscriberTimeline tl =
      generators_[info.isp_index].generate(info.probe_id, info.join,
                                           info.leave);
  Rng rng(mix(config_.seed, info.probe_id));
  emit_hours(info, tl, info.join, info.leave, info.starts_with_test_addr, rng,
             out);
}

void AtlasSimulator::multihomed_records(const ProbeInfo& info,
                                        std::vector<EchoRecord>& out) const {
  // Two concurrent upstreams; each echo goes out via a random one, so the
  // observed address sequence alternates between two ASes.
  SubscriberTimeline a = generators_[info.isp_index].generate(
      info.probe_id, info.join, info.leave);
  SubscriberTimeline b = generators_[info.second_isp_index].generate(
      info.probe_id ^ 0x5a5a, info.join, info.leave);
  Rng rng(mix(config_.seed, info.probe_id));
  for (Hour h = info.join; h < info.leave; ++h) {
    if (!rng.bernoulli(config_.hourly_presence)) continue;
    const SubscriberTimeline& tl = rng.bernoulli(0.5) ? a : b;
    const Assignment4* s4 = segment_at(tl.v4, h);
    if (s4) {
      EchoRecord r;
      r.probe_id = info.probe_id;
      r.hour = h;
      r.family = Family::kV4;
      r.x_client_ip4 = s4->addr;
      r.src_addr4 = IPv4Address::from_octets(
          192, 168, 1, std::uint8_t(2 + info.probe_id % 250));
      out.push_back(r);
    }
    if (tl.dual_stack) {
      const Assignment6* s6 = segment_at(tl.v6, h);
      if (s6) {
        EchoRecord r;
        r.probe_id = info.probe_id;
        r.hour = h;
        r.family = Family::kV6;
        r.x_client_ip6 = IPv6Address{s6->lan64, iid_at(info, h)};
        r.src_addr6 = r.x_client_ip6;
        out.push_back(r);
      }
    }
  }
}

void AtlasSimulator::as_switch_records(const ProbeInfo& info,
                                       std::vector<EchoRecord>& out) const {
  // Owner changed ISP at switch_hour: one timeline before, another after.
  SubscriberTimeline a = generators_[info.isp_index].generate(
      info.probe_id, info.join, info.switch_hour);
  SubscriberTimeline b = generators_[info.second_isp_index].generate(
      info.probe_id ^ 0xa5a5, info.switch_hour, info.leave);
  Rng rng(mix(config_.seed, info.probe_id));
  emit_hours(info, a, info.join, info.switch_hour,
             info.starts_with_test_addr, rng, out);
  emit_hours(info, b, info.switch_hour, info.leave, false, rng, out);
}

}  // namespace dynamips::atlas
