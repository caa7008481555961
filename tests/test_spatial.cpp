#include "core/spatial.h"

#include <gtest/gtest.h>

namespace dynamips::core {
namespace {

using net::IPv4Address;
using net::IPv6Address;

bgp::Rib test_rib() {
  bgp::Rib rib;
  rib.announce(*net::Prefix4::parse("10.0.0.0/8"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix4::parse("20.0.0.0/8"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:100::/32"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:200::/32"),
               {100, bgp::Registry::kRipe});
  return rib;
}

CleanProbe probe_with_v4(std::initializer_list<const char*> addrs) {
  CleanProbe cp;
  cp.probe_id = 1;
  cp.asn = 100;
  Hour h = 0;
  for (const char* a : addrs)
    cp.v4.push_back({h++, *IPv4Address::parse(a), false});
  return cp;
}

CleanProbe probe_with_v6(std::initializer_list<const char*> addrs) {
  CleanProbe cp;
  cp.probe_id = 1;
  cp.asn = 100;
  Hour h = 0;
  for (const char* a : addrs)
    cp.v6.push_back({h++, *IPv6Address::parse(a), true});
  return cp;
}

TEST(Spatial, V4Diff24Counting) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(probe_with_v4(
      {"10.0.1.1", "10.0.1.2", "10.0.2.1", "10.9.1.1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_EQ(s.v4_changes, 3u);
  EXPECT_EQ(s.v4_diff_24, 2u) << "1->2 stays in /24; others leave";
  EXPECT_EQ(s.v4_diff_bgp, 0u);
  EXPECT_NEAR(s.pct_v4_diff_24(), 66.7, 0.1);
}

TEST(Spatial, V4DiffBgpCounting) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(probe_with_v4({"10.0.1.1", "20.0.1.1", "20.5.1.1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_EQ(s.v4_changes, 2u);
  EXPECT_EQ(s.v4_diff_bgp, 1u);
  EXPECT_EQ(s.pct_v4_diff_bgp(), 50.0);
}

TEST(Spatial, CplHistogram) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  // Paper's own example: 2604:...aa00 -> 2604:...aaf0 has CPL 56. Use our
  // announced space with the same offsets.
  an.add(probe_with_v6(
      {"2001:100:4b80:aa00::1", "2001:100:4b80:aaf0::1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_EQ(s.v6_changes, 1u);
  EXPECT_EQ(s.cpl.changes[56], 1u);
  EXPECT_EQ(s.cpl.probes[56], 1u);
  EXPECT_EQ(s.cpl.total_changes(), 1u);
}

TEST(Spatial, CplProbeCountsOncePerValue) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  // Three changes with the same CPL from one probe: changes=3, probes=1.
  an.add(probe_with_v6({"2001:100::1", "2001:100:0:1::1",
                              "2001:100::1", "2001:100:0:1::1"}));
  const auto& s = an.by_as().at(100);
  int cpl = net::common_prefix_length64(0x2001010000000000ull,
                                        0x2001010000000001ull);
  EXPECT_EQ(s.cpl.changes[std::size_t(cpl)], 3u);
  EXPECT_EQ(s.cpl.probes[std::size_t(cpl)], 1u);
}

TEST(Spatial, V6DiffBgp) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(
      probe_with_v6({"2001:100:1::1", "2001:200:1::1", "2001:200:2::1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_EQ(s.v6_changes, 2u);
  EXPECT_EQ(s.v6_diff_bgp, 1u);
  EXPECT_EQ(s.pct_v6_diff_bgp(), 50.0);
}

TEST(Spatial, UniquePrefixCounts) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  // Two /64s in the same /48, one further /48 in the same /40.
  an.add(probe_with_v6({"2001:100:4b80:aa00::1",
                              "2001:100:4b80:bb00::1",
                              "2001:100:4b90:cc00::1"}));
  const auto& s = an.by_as().at(100);
  ASSERT_EQ(s.unique_prefixes.at(64).size(), 1u);
  EXPECT_EQ(s.unique_prefixes.at(64)[0], 3u);
  EXPECT_EQ(s.unique_prefixes.at(48)[0], 2u);
  EXPECT_EQ(s.unique_prefixes.at(40)[0], 1u);
  EXPECT_EQ(s.unique_prefixes.at(32)[0], 1u);
  ASSERT_EQ(s.unique_bgp.size(), 1u);
  EXPECT_EQ(s.unique_bgp[0], 1u);
}

TEST(Spatial, UniqueBgpAcrossAnnouncements) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(probe_with_v6({"2001:100:1::1", "2001:200:1::1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_EQ(s.unique_bgp[0], 2u);
}

TEST(Spatial, NoV6NoFig8Entry) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(probe_with_v4({"10.0.1.1", "10.0.2.1"}));
  const auto& s = an.by_as().at(100);
  EXPECT_TRUE(s.unique_prefixes.empty());
  EXPECT_TRUE(s.unique_bgp.empty());
}

TEST(Spatial, AggregatesAcrossProbes) {
  auto rib = test_rib();
  SpatialAnalyzer an(rib);
  an.add(probe_with_v6({"2001:100::1", "2001:100:0:1::1"}));
  auto second = probe_with_v6({"2001:100::1", "2001:100:0:1::1"});
  second.probe_id = 2;
  an.add(second);
  const auto& s = an.by_as().at(100);
  int cpl = net::common_prefix_length64(0x2001010000000000ull,
                                        0x2001010000000001ull);
  EXPECT_EQ(s.cpl.changes[std::size_t(cpl)], 2u);
  EXPECT_EQ(s.cpl.probes[std::size_t(cpl)], 2u);
  EXPECT_EQ(s.unique_prefixes.at(64).size(), 2u);
}

}  // namespace
}  // namespace dynamips::core
