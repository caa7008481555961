#include "core/durations.h"

#include <gtest/gtest.h>

namespace dynamips::core {
namespace {

using net::IPv4Address;
using net::IPv6Address;

// Build a clean probe whose v4 address changes every `period` hours over
// `total` hours, with optional synchronized v6 changes.
CleanProbe periodic_probe(Hour period, Hour total, bool dual_stack,
                          bool couple, std::uint32_t id = 1) {
  CleanProbe cp;
  cp.probe_id = id;
  cp.asn = 100;
  cp.first_hour = 0;
  cp.last_hour = total - 1;
  for (Hour h = 0; h < total; ++h) {
    std::uint32_t epoch = std::uint32_t(h / period);
    cp.v4.push_back(
        {h, IPv4Address{0x0a000000u + epoch * 256 + 1}, false});
    if (dual_stack) {
      std::uint64_t net = 0x2001010000000000ull +
                          (couple ? epoch : 0) * 0x10000ull;
      cp.v6.push_back({h, IPv6Address{net, 1}, true});
    }
  }
  return cp;
}

TEST(Durations, DualStackClassification) {
  auto ds = periodic_probe(24, 2000, true, true);
  EXPECT_TRUE(DurationAnalyzer::is_dual_stack(ds));
  auto nds = periodic_probe(24, 2000, false, false);
  EXPECT_FALSE(DurationAnalyzer::is_dual_stack(nds));
  // Sparse v6 reporting does not qualify.
  auto sparse = periodic_probe(24, 2000, true, true);
  sparse.v6.resize(100);
  EXPECT_FALSE(DurationAnalyzer::is_dual_stack(sparse));
}

TEST(Durations, SplitsByDualStack) {
  DurationAnalyzer an;
  an.add(periodic_probe(24, 24 * 50, false, false, 1));
  an.add(periodic_probe(48, 48 * 50, true, true, 2));
  const auto& as = an.by_as().at(100);
  EXPECT_EQ(as.probes, 2u);
  EXPECT_EQ(as.ds_probes, 1u);
  EXPECT_EQ(as.probes_with_change, 2u);
  // NDS bucket holds only 24h durations; DS bucket only 48h.
  EXPECT_GT(as.v4_nds.total_count(), 0u);
  EXPECT_DOUBLE_EQ(as.v4_nds.fraction(24), 1.0);
  EXPECT_DOUBLE_EQ(as.v4_ds.fraction(48), 1.0);
}

TEST(Durations, ChangeCountsPerTable1) {
  DurationAnalyzer an;
  an.add(periodic_probe(24, 24 * 10, true, true, 1));
  const auto& as = an.by_as().at(100);
  EXPECT_EQ(as.v4_changes, 9u);
  EXPECT_EQ(as.v4_changes_ds, 9u);
  EXPECT_EQ(as.v6_changes, 9u);
}

TEST(Durations, CooccurrenceFullWhenCoupled) {
  DurationAnalyzer an;
  an.add(periodic_probe(24, 24 * 30, true, true));
  const auto& as = an.by_as().at(100);
  EXPECT_EQ(as.cooccur_total, 29u);
  EXPECT_EQ(as.cooccur_hits, 29u);
  EXPECT_DOUBLE_EQ(as.cooccurrence(), 1.0);
}

TEST(Durations, CooccurrenceZeroWhenV6Static) {
  DurationAnalyzer an;
  an.add(periodic_probe(24, 24 * 30, true, false));
  const auto& as = an.by_as().at(100);
  EXPECT_DOUBLE_EQ(as.cooccurrence(), 0.0);
  EXPECT_EQ(as.v6_changes, 0u);
}

TEST(Durations, V6DurationsAccumulate) {
  DurationAnalyzer an;
  an.add(periodic_probe(24, 24 * 30, true, true));
  const auto& as = an.by_as().at(100);
  EXPECT_GT(as.v6.total_count(), 0u);
  EXPECT_DOUBLE_EQ(as.v6.fraction(24), 1.0);
}

TEST(Durations, StaticProbeCountsButNoChange) {
  CleanProbe cp;
  cp.probe_id = 3;
  cp.asn = 100;
  cp.first_hour = 0;
  cp.last_hour = 1999;
  for (Hour h = 0; h < 2000; ++h)
    cp.v4.push_back({h, *IPv4Address::parse("10.0.0.1"), false});
  DurationAnalyzer an;
  an.add(cp);
  const auto& as = an.by_as().at(100);
  EXPECT_EQ(as.probes, 1u);
  EXPECT_EQ(as.probes_with_change, 0u);
  EXPECT_EQ(as.v4_changes, 0u);
  EXPECT_TRUE(as.v4_nds.empty());
}

TEST(Durations, MultipleAsesKeptSeparate) {
  DurationAnalyzer an;
  auto a = periodic_probe(24, 24 * 10, false, false, 1);
  auto b = periodic_probe(24, 24 * 10, false, false, 2);
  b.asn = 200;
  an.add(a);
  an.add(b);
  EXPECT_EQ(an.by_as().size(), 2u);
  EXPECT_EQ(an.by_as().at(100).probes, 1u);
  EXPECT_EQ(an.by_as().at(200).probes, 1u);
}

TEST(Durations, GapOptionPropagates) {
  // Insert a long gap; with strict options the adjacent durations vanish.
  CleanProbe cp = periodic_probe(24, 24 * 10, false, false);
  // Remove observations in [100, 130): gap of 30 hours.
  std::vector<Obs4> kept;
  for (const auto& o : cp.v4)
    if (o.hour < 100 || o.hour >= 130) kept.push_back(o);
  cp.v4 = kept;
  ChangeOptions strict;
  strict.max_boundary_gap = 10;
  DurationAnalyzer strict_an(strict);
  strict_an.add(cp);
  DurationAnalyzer lenient_an;
  lenient_an.add(cp);
  EXPECT_LT(strict_an.by_as().at(100).v4_nds.total_count(),
            lenient_an.by_as().at(100).v4_nds.total_count());
}

}  // namespace
}  // namespace dynamips::core
