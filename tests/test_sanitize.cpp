#include "core/sanitize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "io/readers.h"
#include "reference/sanitize.h"

namespace dynamips::core {
namespace {

using reference::reference_sanitize;

using net::IPv4Address;
using net::IPv6Address;

// Minimal two-AS world for the sanitizer tests.
bgp::Rib test_rib() {
  bgp::Rib rib;
  rib.announce(*net::Prefix4::parse("10.0.0.0/8"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix4::parse("20.0.0.0/8"),
               {200, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:100::/32"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:200::/32"),
               {200, bgp::Registry::kRipe});
  return rib;
}

// A clean dual-stack probe in AS100 observed for `hours` hours.
ProbeObservations clean_probe(Hour hours, std::uint32_t id = 1) {
  ProbeObservations p;
  p.probe_id = id;
  p.tags = {tag_pool().intern("home")};
  for (Hour h = 0; h < hours; ++h) {
    p.v4.push_back({h, *IPv4Address::parse("10.1.2.3"), false});
    p.v6.push_back({h, *IPv6Address::parse("2001:100:0:5::1"), true});
  }
  return p;
}

TEST(Sanitize, KeepsCleanProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto out = s.sanitize(clean_probe(2000));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(out[0].v4.size(), 2000u);
  EXPECT_EQ(out[0].v6.size(), 2000u);
  EXPECT_EQ(s.stats().probes_kept, 1u);
}

TEST(Sanitize, DropsShortProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto out = s.sanitize(clean_probe(100));  // < 730 hours
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(s.stats().dropped_short, 1u);
}

TEST(Sanitize, DropsBadTags) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  for (const char* tag :
       {"datacentre", "core", "system-anchor", "multihomed"}) {
    auto p = clean_probe(2000);
    p.tags.push_back(tag_pool().intern(tag));
    EXPECT_TRUE(s.sanitize(p).empty()) << tag;
  }
  EXPECT_EQ(s.stats().dropped_bad_tag, 4u);
}

TEST(Sanitize, DropsPublicSrcProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (auto& o : p.v4) o.src_public = true;
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_public_src, 1u);
}

TEST(Sanitize, ToleratesFewPublicSrcRecords) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (std::size_t i = 0; i < 20; ++i) p.v4[i].src_public = true;  // 1%
  EXPECT_EQ(s.sanitize(p).size(), 1u);
}

TEST(Sanitize, DropsV6SrcMismatchProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (auto& o : p.v6) o.src_matches = false;
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_v6_mismatch, 1u);
}

TEST(Sanitize, StripsTestAddress) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  p.v4[0].addr = atlas::ripe_test_address();
  p.v4[1].addr = atlas::ripe_test_address();
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].v4.size(), 1998u);
  EXPECT_EQ(s.stats().test_address_records, 2u);
  for (const auto& o : out[0].v4)
    EXPECT_NE(o.addr, atlas::ripe_test_address());
}

TEST(Sanitize, DropsMultihomedAlternation) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 5;
  for (Hour h = 0; h < 2000; ++h) {
    const char* addr = (h / 3) % 2 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_multihomed, 1u);
}

TEST(Sanitize, SplitsAsSwitchIntoVirtualProbes) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 6;
  for (Hour h = 0; h < 4000; ++h) {
    const char* addr = h < 2000 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(out[0].virtual_index, 0);
  EXPECT_EQ(out[1].asn, 200u);
  EXPECT_EQ(out[1].virtual_index, 1);
  EXPECT_EQ(out[0].v4.size(), 2000u);
  EXPECT_EQ(out[1].v4.size(), 2000u);
  EXPECT_EQ(s.stats().split_probes, 1u);
  EXPECT_EQ(s.stats().virtual_probes, 2u);
}

TEST(Sanitize, SplitDropsShortHalf) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 7;
  for (Hour h = 0; h < 2100; ++h) {
    const char* addr = h < 2000 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(s.stats().dropped_short, 1u);
}

TEST(Sanitize, UnroutedObservationsIgnored) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  // Unrouted blips must not create phantom AS runs.
  p.v4[500].addr = *IPv4Address::parse("99.9.9.9");
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
}

TEST(Sanitize, EmptyProbeDropped) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 9;
  EXPECT_TRUE(s.sanitize(p).empty());
}

TEST(Sanitize, StatsAccumulateAcrossProbes) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  s.sanitize(clean_probe(2000, 1));
  s.sanitize(clean_probe(2000, 2));
  s.sanitize(clean_probe(10, 3));
  EXPECT_EQ(s.stats().probes_seen, 3u);
  EXPECT_EQ(s.stats().probes_kept, 2u);
}

TEST(Sanitize, FromSeriesConversion) {
  atlas::ProbeSeries series;
  series.meta.probe_id = 77;
  series.meta.tags = {tag_pool().intern("home")};
  atlas::EchoRecord r4;
  r4.probe_id = 77;
  r4.hour = 5;
  r4.family = atlas::Family::kV4;
  r4.x_client_ip4 = *IPv4Address::parse("10.0.0.1");
  r4.src_addr4 = *IPv4Address::parse("192.168.1.7");
  series.records.push_back(r4);
  atlas::EchoRecord r6;
  r6.probe_id = 77;
  r6.hour = 5;
  r6.family = atlas::Family::kV6;
  r6.x_client_ip6 = *IPv6Address::parse("2001:100::1");
  r6.src_addr6 = *IPv6Address::parse("2001:100::2");
  series.records.push_back(r6);

  auto obs = from_series(series);
  EXPECT_EQ(obs.probe_id, 77u);
  ASSERT_EQ(obs.v4.size(), 1u);
  EXPECT_FALSE(obs.v4[0].src_public) << "RFC 1918 src is the typical NAT";
  ASSERT_EQ(obs.v6.size(), 1u);
  EXPECT_FALSE(obs.v6[0].src_matches);

  // CGNAT shared space also counts as private.
  series.records[0].src_addr4 = *IPv4Address::parse("100.64.0.1");
  EXPECT_FALSE(from_series(series).v4[0].src_public);
  series.records[0].src_addr4 = *IPv4Address::parse("8.8.8.8");
  EXPECT_TRUE(from_series(series).v4[0].src_public);
}

std::vector<std::uint64_t> stats_fields(SanitizeStats stats) {
  std::vector<std::uint64_t> out;
  auto collect = [&out](auto&... fields) { (out.push_back(fields), ...); };
  stats.fields(collect);
  return out;
}

void expect_same_probes(const std::vector<CleanProbe>& got,
                        const std::vector<CleanProbe>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const CleanProbe& a = got[i];
    const CleanProbe& b = want[i];
    EXPECT_EQ(std::tie(a.probe_id, a.virtual_index, a.asn, a.first_hour,
                       a.last_hour),
              std::tie(b.probe_id, b.virtual_index, b.asn, b.first_hour,
                       b.last_hour))
        << what << " virtual probe " << i;
    ASSERT_EQ(a.v4.size(), b.v4.size()) << what << " virtual probe " << i;
    for (std::size_t j = 0; j < a.v4.size(); ++j)
      EXPECT_TRUE(a.v4[j].hour == b.v4[j].hour &&
                  a.v4[j].addr == b.v4[j].addr &&
                  a.v4[j].src_public == b.v4[j].src_public)
          << what << " v4 " << j;
    ASSERT_EQ(a.v6.size(), b.v6.size()) << what << " virtual probe " << i;
    for (std::size_t j = 0; j < a.v6.size(); ++j)
      EXPECT_TRUE(a.v6[j].hour == b.v6[j].hour &&
                  a.v6[j].addr == b.v6[j].addr &&
                  a.v6[j].src_matches == b.v6[j].src_matches)
          << what << " v6 " << j;
  }
}

/// The shape of a random probe: which families it has and how its
/// addresses move between AS100, AS200 and unrouted space.
enum class Shape {
  kDualStack,       ///< both families, one AS
  kTieDisagree,     ///< a switch whose hour has v4 and v6 in different ASes
  kUnrouted,        ///< unrouted blips in both families
  kTestAddress,     ///< RIPE test address at the head of the v4 history
  kV4Only,
  kV6Only,
  kEmpty,
  kAlternating,     ///< AS100/AS200 alternation (multihomed)
  kSwitch,          ///< one A->B switch at a random hour
  kCount,
};

IPv4Address v4_in(bgp::Asn asn, std::uint32_t host) {
  const std::uint32_t net = asn == 100 ? 10 : asn == 200 ? 20 : 99;
  return IPv4Address((net << 24) | (host & 0xFFFFFF));
}

IPv6Address v6_in(bgp::Asn asn, std::uint64_t host) {
  const std::uint64_t hi = asn == 100   ? 0x2001010000000000ULL
                           : asn == 200 ? 0x2001020000000000ULL
                                        : 0x3fff000000000000ULL;
  return IPv6Address(hi | (host & 0xFFFF), host);
}

ProbeObservations random_probe(std::mt19937_64& rng, std::uint32_t id,
                               Shape shape) {
  ProbeObservations p;
  p.probe_id = id;
  p.tags = {tag_pool().intern("home")};
  if (shape == Shape::kEmpty) return p;
  auto coin = [&rng](double pr) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < pr;
  };
  const Hour span = 200 + rng() % 3000;
  const Hour switch_at = rng() % (span + 1);
  const bool v4_on = shape != Shape::kV6Only;
  const bool v6_on = shape != Shape::kV4Only;
  const bgp::Asn home = coin(0.5) ? 100 : 200;
  const bgp::Asn other = home == 100 ? 200 : 100;
  const Hour period = 1 + rng() % 40;
  const bool every_hour = shape == Shape::kTieDisagree;
  for (Hour h = 0; h < span; h += every_hour ? 1 : 1 + rng() % 3) {
    for (int family = 0; family < 2; ++family) {
      if (!(family == 0 ? v4_on : v6_on)) continue;
      if (h != switch_at && coin(0.1)) continue;
      bgp::Asn asn = home;
      switch (shape) {
        case Shape::kTieDisagree:
          // One switch, where the families disagree at the switch hour.
          asn = h < switch_at || (h == switch_at && family == 0) ? home
                                                                 : other;
          break;
        case Shape::kUnrouted:
          if (coin(0.05)) asn = 0;
          break;
        case Shape::kAlternating:
          asn = (h / period) % 2 ? home : other;
          break;
        case Shape::kSwitch:
          asn = h < switch_at ? home : other;
          break;
        default:
          break;
      }
      const std::uint32_t host = std::uint32_t(rng() % 4);
      if (family == 0) {
        IPv4Address addr = v4_in(asn, host);
        if (shape == Shape::kTestAddress && h < 48)
          addr = atlas::ripe_test_address();
        p.v4.push_back({h, addr, coin(0.01)});
      } else {
        p.v6.push_back({h, v6_in(asn, host), !coin(0.01)});
      }
    }
  }
  return p;
}

TEST(SanitizeReference, MergeAgreesWithStableSortOnRandomProbes) {
  const auto rib = test_rib();
  SanitizeOptions opt;
  Sanitizer s(rib, opt);
  SanitizeStats ref_stats;
  std::mt19937_64 rng(20240611);
  std::vector<int> kept(std::size_t(Shape::kCount), 0);
  for (std::uint32_t id = 0; id < 900; ++id) {
    const Shape shape = Shape(id % std::uint32_t(Shape::kCount));
    const ProbeObservations p = random_probe(rng, id, shape);
    const std::string what =
        "probe " + std::to_string(id) + " shape " + std::to_string(int(shape));
    const auto want = reference_sanitize(rib, opt, p, ref_stats);
    expect_same_probes(s.sanitize(p), want, what);
    kept[std::size_t(shape)] += !want.empty();
  }
  EXPECT_EQ(stats_fields(s.stats()), stats_fields(ref_stats));
  // The random shapes reach every outcome the oracle has to agree on.
  EXPECT_GT(ref_stats.probes_kept, 0u);
  EXPECT_GT(ref_stats.split_probes, 0u);
  EXPECT_GT(ref_stats.dropped_multihomed, 0u);
  EXPECT_GT(ref_stats.dropped_short, 0u);
  EXPECT_GT(ref_stats.test_address_records, 0u);
  EXPECT_GT(kept[std::size_t(Shape::kTieDisagree)], 0);
  EXPECT_GT(kept[std::size_t(Shape::kV4Only)], 0);
  EXPECT_GT(kept[std::size_t(Shape::kV6Only)], 0);
}

// At equal hours v4 comes before v6. Here v4 stays in AS100 through hour
// 1000 and v6 is in AS200 from hour 1000 on: v4 first gives one A->B
// switch (two virtual probes that meet at hour 1000); v6 first would give
// AS100, AS200, AS100, AS200 and drop the probe as multihomed.
TEST(Sanitize, SameHourTieTakesV4First) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 11;
  for (Hour h = 0; h <= 1000; ++h)
    p.v4.push_back({h, *IPv4Address::parse("10.1.2.3"), false});
  for (Hour h = 1000; h <= 2000; ++h)
    p.v6.push_back({h, *IPv6Address::parse("2001:200::1"), true});
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(out[0].first_hour, 0u);
  EXPECT_EQ(out[0].last_hour, 1000u);
  EXPECT_EQ(out[0].v4.size(), 1001u);
  EXPECT_TRUE(out[0].v6.empty());
  EXPECT_EQ(out[1].asn, 200u);
  EXPECT_EQ(out[1].first_hour, 1000u);
  EXPECT_EQ(out[1].last_hour, 2000u);
  EXPECT_TRUE(out[1].v4.empty());
  EXPECT_EQ(out[1].v6.size(), 1001u);
  EXPECT_EQ(s.stats().dropped_multihomed, 0u);
  EXPECT_EQ(s.stats().split_probes, 1u);
}

// ------------------------------------------------ the order precondition
//
// sanitize() merges the two families in one pass, so from_series must hand
// it hour-ordered v4 and v6 lists whatever order the records arrived in.

void expect_hour_ordered(const ProbeObservations& obs) {
  EXPECT_TRUE(std::is_sorted(
      obs.v4.begin(), obs.v4.end(),
      [](const Obs4& a, const Obs4& b) { return a.hour < b.hour; }))
      << "probe " << obs.probe_id;
  EXPECT_TRUE(std::is_sorted(
      obs.v6.begin(), obs.v6.end(),
      [](const Obs6& a, const Obs6& b) { return a.hour < b.hour; }))
      << "probe " << obs.probe_id;
}

/// Echo records of probes 1..3 at `hours`, both families, as CSV lines.
std::vector<std::string> echo_lines(const std::vector<Hour>& hours) {
  std::vector<std::string> lines;
  for (std::uint32_t probe = 1; probe <= 3; ++probe) {
    for (Hour h : hours) {
      atlas::EchoRecord r;
      r.probe_id = probe;
      r.hour = h;
      r.family = atlas::Family::kV4;
      r.x_client_ip4 = v4_in(h % 500 < 250 ? 100 : 200, probe);
      r.src_addr4 = *IPv4Address::parse("192.168.1.2");
      lines.push_back(io::to_csv(r));
      r.family = atlas::Family::kV6;
      r.x_client_ip6 = v6_in(100, probe);
      r.src_addr6 = r.x_client_ip6;
      lines.push_back(io::to_csv(r));
    }
  }
  return lines;
}

std::vector<atlas::ProbeSeries> read_lines(
    const std::vector<std::string>& lines) {
  std::stringstream csv;
  csv << "probe_id,hour,family,x_client_ip,src_addr\n";
  for (const std::string& line : lines) csv << line << '\n';
  auto dataset = io::read_echo_dataset(csv);
  EXPECT_TRUE(dataset.ok()) << dataset.status().to_string();
  return dataset.ok() ? std::move(dataset.value())
                      : std::vector<atlas::ProbeSeries>{};
}

TEST(SanitizeOrder, OutOfOrderCsvRecordsGiveHourOrderedObservations) {
  std::vector<Hour> hours(1500);
  for (Hour h = 0; h < hours.size(); ++h) hours[h] = h;
  auto lines = echo_lines(hours);
  std::mt19937_64 rng(7);
  std::shuffle(lines.begin(), lines.end(), rng);
  const auto dataset = read_lines(lines);
  ASSERT_EQ(dataset.size(), 3u);

  const auto rib = test_rib();
  Sanitizer s(rib, {});
  SanitizeStats ref_stats;
  for (const auto& series : dataset) {
    const ProbeObservations obs = from_series(series);
    EXPECT_EQ(obs.v4.size(), hours.size());
    EXPECT_EQ(obs.v6.size(), hours.size());
    expect_hour_ordered(obs);
    expect_same_probes(s.sanitize(obs),
                       reference_sanitize(rib, {}, obs, ref_stats),
                       "probe " + std::to_string(obs.probe_id));
  }
  EXPECT_EQ(stats_fields(s.stats()), stats_fields(ref_stats));
}

TEST(SanitizeOrder, MergedDatasetsWithInterleavedHoursGiveHourOrdered) {
  std::vector<Hour> even, odd;
  for (Hour h = 0; h < 1500; ++h) (h % 2 ? odd : even).push_back(h);
  auto dataset = read_lines(echo_lines(even));
  io::merge_echo_datasets(dataset, read_lines(echo_lines(odd)));
  ASSERT_EQ(dataset.size(), 3u);
  for (const auto& series : dataset) {
    const ProbeObservations obs = from_series(series);
    EXPECT_EQ(obs.v4.size(), 1500u);
    EXPECT_EQ(obs.v6.size(), 1500u);
    expect_hour_ordered(obs);
  }
}

}  // namespace
}  // namespace dynamips::core
