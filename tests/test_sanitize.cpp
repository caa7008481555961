#include "core/sanitize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "atlas/generator.h"
#include "io/readers.h"
#include "reference/sanitize.h"
#include "simnet/isp.h"

namespace dynamips::core {
namespace {

using reference::reference_sanitize;
using reference::replay_fold;

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

// ------------------------------------------------------ the resumable fold
//
// A stream keeps each probe's SanitizeFold across re-finalizations and
// resumes it at the seam. Growing a probe batch by batch, the resumed fold
// must equal a fold from record 0, and both the reference's CleanProbes
// (their spans and observation counts) and filter accounting, after every
// batch (replay_fold).

atlas::EchoRecord echo_of(std::uint32_t id, const Obs4& o) {
  atlas::EchoRecord r;
  r.probe_id = id;
  r.hour = o.hour;
  r.family = atlas::Family::kV4;
  r.x_client_ip4 = o.addr;
  r.src_addr4 = *IPv4Address::parse(o.src_public ? "8.8.8.8" : "192.168.1.2");
  return r;
}

atlas::EchoRecord echo_of(std::uint32_t id, const Obs6& o) {
  atlas::EchoRecord r;
  r.probe_id = id;
  r.hour = o.hour;
  r.family = atlas::Family::kV6;
  r.x_client_ip6 = o.addr;
  r.src_addr6 =
      o.src_matches ? o.addr : IPv6Address(o.addr.network64(), 0xdeadbeef);
  return r;
}

/// `p`'s records in hour order, each hour's v4 and v6 records in a random
/// order (a reader keeps the order of the lines).
std::vector<atlas::EchoRecord> records_of(const ProbeObservations& p,
                                          std::mt19937_64& rng) {
  std::vector<atlas::EchoRecord> out;
  std::size_t i4 = 0, i6 = 0;
  while (i4 < p.v4.size() || i6 < p.v6.size()) {
    const Hour hour = i6 == p.v6.size()   ? p.v4[i4].hour
                      : i4 == p.v4.size() ? p.v6[i6].hour
                                          : std::min(p.v4[i4].hour,
                                                     p.v6[i6].hour);
    std::vector<atlas::EchoRecord> v4, v6;
    for (; i4 < p.v4.size() && p.v4[i4].hour == hour; ++i4)
      v4.push_back(echo_of(p.probe_id, p.v4[i4]));
    for (; i6 < p.v6.size() && p.v6[i6].hour == hour; ++i6)
      v6.push_back(echo_of(p.probe_id, p.v6[i6]));
    if (rng() % 2) std::swap(v4, v6);
    out.insert(out.end(), v4.begin(), v4.end());
    out.insert(out.end(), v6.begin(), v6.end());
  }
  return out;
}

/// How a probe's records reach the stream.
struct Delivery {
  std::size_t batches = 1;
  double reach_back = 0;  ///< share of records delivered in a later batch
  double repeat = 0;      ///< share of records delivered again later
  bool split_ties = false;  ///< a seam hour's v4 waits for the next batch
  bool late_tags = false;   ///< tags come with the last batch
};

/// Cut an hour-ordered record list into `d.batches` equal-hour slices, then
/// move and repeat records as `d` says. Each batch is one probe's records
/// in hour order, as a reader returns them.
std::vector<atlas::ProbeSeries> deliver(std::uint32_t id,
                                        const std::vector<TagId>& tags,
                                        const std::vector<atlas::EchoRecord>&
                                            records,
                                        const Delivery& d,
                                        std::mt19937_64& rng) {
  auto coin = [&rng](double pr) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < pr;
  };
  std::vector<std::vector<atlas::EchoRecord>> parts(d.batches);
  Hour lo = records.empty() ? 0 : records.front().hour;
  Hour hi = records.empty() ? 0 : records.back().hour;
  auto slice_of = [&](Hour h) {
    return std::size_t((h - lo) * d.batches / (hi - lo + 1));
  };
  auto later = [&](std::size_t b) {
    return b + 1 + std::size_t(rng() % (d.batches - b));
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    atlas::EchoRecord r = records[i];
    std::size_t b = slice_of(r.hour);
    std::size_t next = i + 1;
    while (next < records.size() && records[next].hour == r.hour) ++next;
    const bool last_of_slice =
        next == records.size() || slice_of(records[next].hour) != b;
    if (d.split_ties && last_of_slice && r.family == atlas::Family::kV4 &&
        b + 1 < d.batches)
      ++b;
    else if (b + 1 < d.batches && coin(d.reach_back))
      b = std::min(later(b), d.batches - 1);
    parts[b].push_back(r);
    if (b + 1 < d.batches && coin(d.repeat)) {
      // Again in a later batch, at times from another AS.
      if (coin(0.5)) {
        if (r.family == atlas::Family::kV4)
          r.x_client_ip4 = v4_in(r.x_client_ip4.value() >> 24 == 10 ? 200 : 100,
                                 std::uint32_t(rng() % 4));
        else
          r.x_client_ip6 = v6_in(200, rng() % 4);
      }
      parts[std::min(later(b), d.batches - 1)].push_back(r);
    }
  }
  std::vector<atlas::ProbeSeries> out(d.batches);
  for (std::size_t b = 0; b < d.batches; ++b) {
    out[b].meta.probe_id = id;
    out[b].records = std::move(parts[b]);
    std::stable_sort(
        out[b].records.begin(), out[b].records.end(),
        [](const atlas::EchoRecord& a, const atlas::EchoRecord& c) {
          return a.hour < c.hour;
        });
  }
  (d.late_tags ? out.back() : out.front()).meta.tags = tags;
  return out;
}

/// Make each AS switch of `obs` pass through unrouted space at times.
template <typename Obs>
void unroute_boundaries(std::vector<Obs>& obs, std::mt19937_64& rng) {
  auto asn_of = [](const Obs& o) {
    if constexpr (std::is_same_v<Obs, Obs4>)
      return o.addr.value() >> 24;
    else
      return std::uint32_t(o.addr.network64() >> 40);
  };
  for (std::size_t i = obs.size(); i-- > 1;)
    if (asn_of(obs[i]) != asn_of(obs[i - 1]) && rng() % 2) {
      if constexpr (std::is_same_v<Obs, Obs4>)
        obs[i].addr = v4_in(0, 1);
      else
        obs[i].addr = v6_in(0, 1);
    }
}

TEST(SanitizeFold, ResumedAtRandomSeamsMatchesFromZeroAndTheReference) {
  const auto rib = test_rib();
  std::mt19937_64 rng(20261020);
  const std::vector<TagId> home{tag_pool().intern("home")};
  const std::vector<TagId> bad{tag_pool().intern("home"),
                               tag_pool().intern("multihomed")};
  for (int max_runs : {2, 3}) {
    SanitizeOptions opt;
    opt.max_as_runs = max_runs;
    for (std::uint32_t id = 0; id < 600; ++id) {
      const Shape shape = Shape(id % std::uint32_t(Shape::kCount));
      ProbeObservations p = random_probe(rng, id, shape);
      if (rng() % 2) {
        unroute_boundaries(p.v4, rng);
        unroute_boundaries(p.v6, rng);
      }
      Delivery d;
      d.batches = 1 + rng() % 6;
      switch (id / std::uint32_t(Shape::kCount) % 5) {
        case 1: d.reach_back = 0.02; break;
        case 2: d.repeat = 0.02; break;
        case 3: d.split_ties = true; break;
        case 4: d.late_tags = true; break;
        default: break;
      }
      const auto batches = deliver(id, id % 7 ? home : bad,
                                   records_of(p, rng), d, rng);
      EXPECT_EQ(replay_fold(rib, opt, batches), "")
          << "probe " << id << " shape " << int(shape) << " max_as_runs "
          << max_runs;
    }
  }
}

TEST(SanitizeFold, GeneratorSeriesSplitIntoBatchesMatchTheReference) {
  auto isps = simnet::paper_isps();
  isps.resize(4);
  bgp::Rib rib;
  simnet::announce_all(isps, rib);
  std::mt19937_64 rng(29);
  for (std::uint64_t seed : {1, 2, 3}) {
    atlas::AtlasConfig cfg;
    cfg.probe_scale = 0.01;
    cfg.window_hours = 4000;
    cfg.seed = seed;
    atlas::AtlasSimulator sim(isps, cfg);
    for (std::size_t i = 0; i < sim.probe_count(); ++i) {
      const atlas::ProbeSeries series = sim.series_for(i);
      Delivery d;
      d.batches = 2 + rng() % 11;
      d.reach_back = i % 3 == 1 ? 0.001 : 0;
      d.repeat = i % 3 == 2 ? 0.001 : 0;
      d.split_ties = i % 2;
      EXPECT_EQ(replay_fold(rib, {},
                            deliver(series.meta.probe_id, series.meta.tags,
                                    series.records, d, rng)),
                "")
          << "seed " << seed << " probe " << i;
    }
  }
}

/// One probe's batch of v4 and v6 records at the given hours and ASes.
atlas::ProbeSeries batch_of(
    std::vector<std::tuple<Hour, atlas::Family, bgp::Asn>> records) {
  atlas::ProbeSeries out;
  out.meta.probe_id = 1;
  for (const auto& [hour, family, asn] : records)
    out.records.push_back(family == atlas::Family::kV4
                              ? echo_of(1, Obs4{hour, v4_in(asn, 1), false})
                              : echo_of(1, Obs6{hour, v6_in(asn, 1), true}));
  return out;
}

constexpr atlas::Family kV4 = atlas::Family::kV4;
constexpr atlas::Family kV6 = atlas::Family::kV6;

// The tie of Sanitize.SameHourTieTakesV4First split across a seam: hour
// 1000's v6 (AS200) comes in the first batch, its v4 (AS100) in the
// second, after it in the series. Resumed as is, the fold would see
// AS100, AS200, AS100 and call the probe multihomed; it refolds instead.
TEST(SanitizeFold, SameHourTieAcrossTheSeamRefolds) {
  const auto rib = test_rib();
  std::vector<std::tuple<Hour, atlas::Family, bgp::Asn>> first, second;
  for (Hour h = 0; h < 1000; ++h) first.push_back({h, kV4, 100});
  first.push_back({1000, kV6, 200});
  second.push_back({1000, kV4, 100});
  for (Hour h = 1001; h <= 2000; ++h) second.push_back({h, kV6, 200});
  EXPECT_EQ(replay_fold(rib, {}, {batch_of(first), batch_of(second)}), "");

  io::EchoAccumulator dataset;
  dataset.merge({batch_of(first)});
  dataset.merge({batch_of(second)});
  EXPECT_EQ(dataset.rewrites().front(), 0u) << "the tie is no merge";
  Sanitizer s(rib, {});
  SanitizeFold fold;
  s.fold(fold, dataset.items().front());
  EXPECT_EQ(s.emit(fold, dataset.items().front()).size(), 2u);
  EXPECT_EQ(s.stats().split_probes, 1u);
}

// A batch that reaches back in time merges into the probe's records, so
// the fold restarts at record 0.
TEST(SanitizeFold, BatchReachingBackInTimeRefolds) {
  const auto rib = test_rib();
  std::vector<std::tuple<Hour, atlas::Family, bgp::Asn>> a, b, c;
  for (Hour h = 0; h < 2000; ++h)
    if (h < 500 || h >= 600) a.push_back({h, kV4, 100});
  for (Hour h = 2000; h < 3000; ++h) b.push_back({h, kV4, 100});
  for (Hour h = 500; h < 600; ++h) c.push_back({h, kV4, 200});
  EXPECT_EQ(replay_fold(rib, {}, {batch_of(a), batch_of(b), batch_of(c)}),
            "");
  io::EchoAccumulator dataset;
  for (auto* batch : {&a, &b, &c}) dataset.merge({batch_of(*batch)});
  EXPECT_EQ(dataset.rewrites().front(), 1u);
}

// Two runs of one AS meet at hour 1000, which holds a repeated v4 record
// from another AS: with max_as_runs 3 both AS100 virtual probes take the
// AS100 records of that hour, as the reference's per-run selection does.
TEST(SanitizeFold, RunsOfOneAsMeetingAtAnHourMatchTheReference) {
  const auto rib = test_rib();
  SanitizeOptions opt;
  opt.max_as_runs = 3;
  std::vector<std::tuple<Hour, atlas::Family, bgp::Asn>> first, second;
  for (Hour h = 0; h <= 1000; ++h) first.push_back({h, kV4, 100});
  second.push_back({1000, kV4, 200});
  second.push_back({1000, kV6, 100});
  for (Hour h = 1001; h <= 2000; ++h) {
    second.push_back({h, kV4, 100});
    second.push_back({h, kV6, 100});
  }
  EXPECT_EQ(replay_fold(rib, opt, {batch_of(first), batch_of(second)}), "");
}

TEST(SanitizeFold, TagsArrivingInALaterBatchApplyToTheWholeProbe) {
  const auto rib = test_rib();
  std::vector<std::tuple<Hour, atlas::Family, bgp::Asn>> first, second;
  for (Hour h = 0; h < 1000; ++h) first.push_back({h, kV4, 100});
  for (Hour h = 1000; h < 2000; ++h) second.push_back({h, kV4, 100});
  auto tagged = batch_of(second);
  tagged.meta.tags = {tag_pool().intern("datacentre")};
  EXPECT_EQ(replay_fold(rib, {}, {batch_of(first), tagged}), "");
}

}  // namespace
}  // namespace dynamips::core
