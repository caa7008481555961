#include "core/assoc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cdn/generator.h"
#include "reference/assoc.h"

namespace dynamips::core {
namespace {

using net::Prefix4;
using net::Prefix6;

cdn::AssociationRecord rec(std::uint32_t day, const char* v4,
                           std::uint64_t net64, bgp::Asn asn4,
                           bgp::Asn asn6) {
  cdn::AssociationRecord r;
  r.day = day;
  r.v4_24 = *Prefix4::parse(v4);
  r.v6_64 = Prefix6{net::IPv6Address{net64, 0}, 64};
  r.asn4 = asn4;
  r.asn6 = asn6;
  return r;
}

cdn::AssociationLog log_of(std::vector<cdn::AssociationRecord> records,
                           bgp::Asn asn = 100,
                           bgp::Registry reg = bgp::Registry::kRipe) {
  cdn::AssociationLog log;
  log.asn = asn;
  log.registry = reg;
  log.records = std::move(records);
  return log;
}

TEST(Assoc, SingleRunDuration) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(5, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(9, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 10.0);  // days 0..9 inclusive
  EXPECT_EQ(stats.unique_64s, 1u);
  EXPECT_EQ(stats.tuples, 3u);
}

TEST(Assoc, RunBreaksOn24Change) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(3, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(4, "10.0.9.0/24", 0x2001000000000100ull, 100, 100),
                     rec(8, "10.0.9.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 4.0);
  EXPECT_DOUBLE_EQ(stats.durations_days[1], 5.0);
}

TEST(Assoc, RunBreaksOnLongGap) {
  AssocOptions opts;
  opts.max_gap_days = 7;
  CdnAnalyzer an(opts, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(20, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 1.0);
  EXPECT_DOUBLE_EQ(stats.durations_days[1], 1.0);
}

TEST(Assoc, AsnMismatchFiltered) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "99.0.0.0/24", 0x2001000000000100ull, 999, 100),
                     rec(2, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  EXPECT_EQ(stats.tuples, 2u);
  EXPECT_EQ(stats.mismatched, 1u);
  EXPECT_EQ(an.total_mismatched(), 1u);
  // The foreign /24 never entered the run: one unbroken association.
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 3.0);
}

TEST(Assoc, AsnMismatchKeptWhenFilterDisabled) {
  AssocOptions opts;
  opts.require_asn_match = false;
  CdnAnalyzer an(opts, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "99.0.0.0/24", 0x2001000000000100ull, 999, 100),
                     rec(2, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  EXPECT_EQ(stats.tuples, 3u);
  // The ablation: the foreign /24 splits the association into three runs.
  EXPECT_EQ(stats.durations_days.size(), 3u);
}

TEST(Assoc, DegreesCountUnique64sPer24) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2001000000000200ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "10.0.9.0/24", 0x2001000000000300ull, 100, 100)}));
  auto degrees = an.degrees();
  ASSERT_EQ(degrees.size(), 2u);
  std::uint32_t d0 = degrees[0].first, d1 = degrees[1].first;
  EXPECT_EQ(d0 + d1, 3u);
  EXPECT_EQ(std::max(d0, d1), 2u);
}

TEST(Assoc, MobileClassification) {
  CdnAnalyzer an({}, {200});
  auto mobile_log = log_of(
      {rec(0, "10.0.0.0/24", 0x2001000000000100ull, 200, 200)}, 200);
  mobile_log.mobile = true;
  an.add_log(mobile_log);
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x2002000000000100ull, 100, 100)}));
  EXPECT_TRUE(an.by_asn().at(200).mobile);
  EXPECT_FALSE(an.by_asn().at(100).mobile);
  ASSERT_EQ(an.degrees().size(), 2u);
  int mobile_degrees = 0;
  for (auto& [d, m] : an.degrees()) mobile_degrees += m;
  EXPECT_EQ(mobile_degrees, 1);
}

TEST(Assoc, RegistryDurationsGrouped) {
  CdnAnalyzer an({}, {200});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)},
                    100, bgp::Registry::kArin));
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x2002000000000100ull, 200, 200)},
                    200, bgp::Registry::kArin));
  EXPECT_EQ(an.registry_durations()
                .at(RegistryClass{bgp::Registry::kArin, false})
                .size(),
            1u);
  EXPECT_EQ(an.registry_durations()
                .at(RegistryClass{bgp::Registry::kArin, true})
                .size(),
            1u);
}

TEST(Assoc, SingleVsMulti24Fractions) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x1100ull, 100, 100),
                     rec(1, "10.0.1.0/24", 0x1100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2200ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x3300ull, 100, 100)}));
  // /64 0x1100 saw two /24s; 0x2200 and 0x3300 saw one each.
  EXPECT_NEAR(an.fraction_64s_with_single_24(false), 2.0 / 3.0, 1e-9);
}

TEST(Assoc, ZeroCountsPerUnique64) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2001000000000123ull, 100, 100)}));
  const auto& z = an.zero_counts().at(
      RegistryClass{bgp::Registry::kRipe, false});
  EXPECT_EQ(z.total(), 2u) << "classification is per unique /64";
  EXPECT_EQ(z.counts[std::size_t(ZeroBoundary::k56)], 1u);
  EXPECT_EQ(z.counts[std::size_t(ZeroBoundary::kNone)], 1u);
}

TEST(Assoc, MultipleLogsAccumulate) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x100ull, 100, 100)}));
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x200ull, 101, 101)}, 101));
  EXPECT_EQ(an.total_tuples(), 2u);
  EXPECT_EQ(an.by_asn().size(), 2u);
}

TEST(Assoc, OutOfOrderSameDayRecordsHandled) {
  CdnAnalyzer an({}, {});
  // Two observations the same day with the same /24: one run.
  an.add_log(log_of({rec(3, "10.0.0.0/24", 0x500ull, 100, 100),
                     rec(3, "10.0.0.0/24", 0x500ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 1.0);
}


// ------------------------------------------------ differential oracle
//
// CdnAnalyzer (radix-sorted tuples, distinct pairs, and the external-merge
// path at spill_mb > 0) must agree field by field with the naive
// reference/assoc.h analyzer on every log sequence below.

void expect_matches_reference(const CdnSnapshot& got,
                              const reference::ReferenceAssoc& want,
                              const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.by_asn().size(), want.by_asn.size());
  auto w = want.by_asn.begin();
  for (const auto& [asn, g] : got.by_asn()) {
    const AsnAssocStats& ws = (w++)->second;
    EXPECT_EQ(asn, ws.asn);
    EXPECT_EQ(g.asn, ws.asn);
    EXPECT_EQ(g.mobile, ws.mobile);
    EXPECT_EQ(g.registry, ws.registry);
    EXPECT_EQ(g.durations_days, ws.durations_days) << "asn " << asn;
    EXPECT_EQ(g.tuples, ws.tuples);
    EXPECT_EQ(g.mismatched, ws.mismatched);
    EXPECT_EQ(g.unique_64s, ws.unique_64s);
  }
  ASSERT_EQ(got.registry_durations().size(), want.registry_durations.size());
  auto wr = want.registry_durations.begin();
  for (const auto& [cls, durations] : got.registry_durations()) {
    EXPECT_FALSE(cls < wr->first || wr->first < cls);
    EXPECT_EQ(durations, wr->second);
    ++wr;
  }
  EXPECT_EQ(got.degrees(), want.degrees);
  ASSERT_EQ(got.zero_counts().size(), want.zero_counts.size());
  auto wz = want.zero_counts.begin();
  for (const auto& [cls, counts] : got.zero_counts()) {
    EXPECT_FALSE(cls < wz->first || wz->first < cls);
    EXPECT_EQ(counts.counts, wz->second.counts);
    ++wz;
  }
  for (bool mobile : {false, true}) {
    EXPECT_EQ(got.single_24_64s(mobile), want.single_24_64s[mobile]);
    EXPECT_EQ(got.multi_24_64s(mobile), want.multi_24_64s[mobile]);
  }
  EXPECT_EQ(got.total_tuples(), want.total_tuples);
  EXPECT_EQ(got.total_mismatched(), want.total_mismatched);
}

/// Feed `logs` to the reference and to in-memory and spilled analyzers.
void check_against_reference(const std::vector<cdn::AssociationLog>& logs,
                             const std::string& what,
                             AssocOptions options = {},
                             const std::set<bgp::Asn>& mobile = {}) {
  reference::ReferenceAssoc want(options, mobile);
  for (const auto& log : logs) want.add_log(log);
  const std::unordered_set<bgp::Asn> mobile_set(mobile.begin(), mobile.end());
  for (std::uint64_t spill_mb : {0, 1}) {
    AssocOptions opts = options;
    opts.spill_mb = spill_mb;
    opts.spill_dir = ::testing::TempDir();
    CdnAnalyzer got(opts, mobile_set);
    for (const auto& log : logs) got.add_log(log);
    expect_matches_reference(got.snapshot(), want,
                             what + " spill_mb=" + std::to_string(spill_mb));
  }
}

cdn::AssociationRecord rec_of(std::uint32_t day, net::Prefix4 v4,
                              std::uint64_t net64, bgp::Asn asn = 100) {
  cdn::AssociationRecord r;
  r.day = day;
  r.v4_24 = v4;
  r.v6_64 = Prefix6{net::IPv6Address{net64, 0}, 64};
  r.asn4 = r.asn6 = asn;
  return r;
}

Prefix4 v4_of(std::uint32_t addr, int len = 24) {
  return Prefix4{net::IPv4Address{addr}, len};
}

TEST(AssocOracle, GeneratedLogsMatchReference) {
  for (std::uint64_t seed : {1, 2, 3}) {
    cdn::CdnConfig cfg;
    cfg.subscriber_scale = 0.02;
    cfg.seed = seed;
    cdn::CdnSimulator sim(cdn::default_cdn_population(0.02), cfg);
    std::vector<cdn::AssociationLog> logs;
    for (std::size_t i = 0; i < sim.entry_count(); ++i)
      logs.push_back(sim.generate(i));
    const auto mobile_set = sim.mobile_asns();
    const std::set<bgp::Asn> mobile(mobile_set.begin(), mobile_set.end());
    const std::string what = "seed " + std::to_string(seed);
    check_against_reference(logs, what, {}, mobile);
    AssocOptions no_filter;
    no_filter.require_asn_match = false;
    no_filter.max_gap_days = 3;
    check_against_reference(logs, what + " no filter, gap 3", no_filter,
                            mobile);
  }
}

TEST(AssocOracle, EmptyMismatchedAndSingleRecordLogs) {
  check_against_reference({log_of({})}, "empty log");
  check_against_reference({}, "no logs");
  auto mismatched = log_of({rec(0, "10.0.0.0/24", 0x100ull, 100, 200),
                            rec(1, "10.0.1.0/24", 0x200ull, 300, 100)});
  check_against_reference({mismatched}, "all mismatched");
  check_against_reference({log_of({rec(7, "10.0.0.0/24", 0x100ull, 100,
                                       100)})},
                          "single record");
  check_against_reference({log_of({}), mismatched, log_of({}, 101)},
                          "empty and mismatched logs in sequence");
}

TEST(AssocOracle, AlternatingAndSharedSlash24s) {
  // A -> B -> A inside one /64: two distinct pairs, three runs.
  const Prefix4 a = v4_of(0x0a000000), b = v4_of(0x0a000100);
  check_against_reference(
      {log_of({rec_of(0, a, 0x500), rec_of(1, b, 0x500), rec_of(2, a, 0x500),
               rec_of(3, a, 0x500), rec_of(3, b, 0x600)})},
      "A-B-A alternation");

  // One /64 seen from many /24s, each several times, in shuffled order.
  std::mt19937_64 rng(11);
  std::vector<cdn::AssociationRecord> many;
  for (std::uint32_t day = 0; day < 40; ++day)
    for (std::uint32_t k = 0; k < 50; ++k)
      many.push_back(rec_of(day, v4_of(0x0b000000 + (k << 8)), 0x7700));
  std::shuffle(many.begin(), many.end(), rng);
  many.push_back(rec_of(3, v4_of(0x0b000000), 0x7800));
  check_against_reference({log_of(many)}, "one /64 from many /24s");

  // A /23 and a /24 at the same address are different prefixes.
  const Prefix4 p23 = v4_of(0x0c000000, 23), p24 = v4_of(0x0c000000, 24);
  check_against_reference(
      {log_of({rec_of(0, p23, 0x900), rec_of(0, p24, 0x900),
               rec_of(1, p24, 0xa00), rec_of(2, p23, 0xa00),
               rec_of(2, p23, 0xb00)})},
      "/23 and /24 at one address");
}

TEST(AssocOracle, ExtremeKeysAndSingleDigitDifferences) {
  const std::uint64_t max = ~std::uint64_t(0);
  check_against_reference(
      {log_of({rec_of(0, v4_of(0), max), rec_of(1, v4_of(0xffffff00), 0),
               rec_of(2, v4_of(0), 0), rec_of(3, v4_of(0xffffff00), max),
               rec_of(4, v4_of(0, 0), max), rec_of(5, v4_of(0xffffffff, 32), 0)})},
      "net64 0 and UINT64_MAX");

  // Per 16-bit digit d: keys that differ only in digit d, so every other
  // digit's pass is skipped, and /24 keys likewise.
  const std::uint64_t base = 0x2001'0db8'1234'5678ull;
  for (unsigned d = 0; d < 4; ++d) {
    std::vector<cdn::AssociationRecord> recs;
    for (std::uint64_t k : {5u, 3u, 0xffffu, 0u, 3u, 0x8000u}) {
      const std::uint64_t net64 =
          (base & ~(std::uint64_t(0xffff) << (16 * d))) | (k << (16 * d));
      recs.push_back(rec_of(std::uint32_t(recs.size()), v4_of(0x0d000000),
                            net64));
    }
    check_against_reference({log_of(recs)},
                            "net64 digit " + std::to_string(d));
  }
  // v4 keys are address << 8 | length: vary the address bits that land in
  // key digits 0 (low byte), 1 and 2 (top byte).
  for (std::uint32_t step : {0x1u, 0x100u, 0x10000u, 0x1000000u}) {
    std::vector<cdn::AssociationRecord> recs;
    for (std::uint32_t k : {4u, 1u, 0xffu, 0u, 1u, 0x80u}) {
      const std::uint32_t addr = 0x0e000000u + k * step;
      recs.push_back(rec_of(0, v4_of(addr, 32), 0x4400 + (k & 1)));
      recs.push_back(rec_of(1, v4_of(addr, 32), 0x4400));
    }
    check_against_reference({log_of(recs)},
                            "v4 step " + std::to_string(step));
  }
}

TEST(AssocOracle, OutOfDayOrderAndDuplicateRecords) {
  std::mt19937_64 rng(5);
  std::vector<cdn::AssociationRecord> recs;
  for (std::uint32_t day = 0; day < 60; day += 1 + std::uint32_t(rng() % 5))
    for (std::uint64_t net : {0x10ull, 0x20ull, 0x30ull})
      recs.push_back(rec_of(day, v4_of(0x0f000000 + std::uint32_t(rng() % 3)
                                                         * 0x100),
                            net));
  check_against_reference({log_of(recs)}, "day-sorted");
  std::shuffle(recs.begin(), recs.end(), rng);
  check_against_reference({log_of(recs)}, "shuffled days");
  std::vector<cdn::AssociationRecord> doubled = recs;
  doubled.insert(doubled.end(), recs.begin(), recs.end());
  check_against_reference({log_of(doubled)}, "every record twice");
}

// Random small logs over tiny domains, so /64s, /24s, days and ASNs
// collide often, under random options and mobile sets.
TEST(AssocOracle, RandomSmallLogsMatchReference) {
  std::mt19937_64 rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    AssocOptions opts;
    opts.require_asn_match = rng() % 4 != 0;
    opts.max_gap_days = std::uint32_t(rng() % 20);
    std::vector<cdn::AssociationLog> logs;
    const int nlogs = 1 + int(rng() % 3);
    for (int l = 0; l < nlogs; ++l) {
      std::vector<cdn::AssociationRecord> recs;
      const int n = int(rng() % 60);
      for (int i = 0; i < n; ++i) {
        const auto day = std::uint32_t(rng() % 40);
        const auto addr = 0x0a000000 + std::uint32_t(rng() % 4) * 0x100;
        const int len = rng() % 5 == 0 ? 23 : 24;
        const std::uint64_t digit = rng() % 6;
        auto r = rec_of(day, v4_of(addr, len), digit << (4 * (rng() % 16)));
        if (rng() % 8 == 0) r.asn4 = 999;
        recs.push_back(r);
      }
      if (rng() % 2)
        std::sort(recs.begin(), recs.end(),
                  [](const auto& x, const auto& y) { return x.day < y.day; });
      logs.push_back(log_of(recs, bgp::Asn(100 + rng() % 3),
                            rng() % 2 ? bgp::Registry::kRipe
                                      : bgp::Registry::kArin));
    }
    check_against_reference(logs, "iteration " + std::to_string(iter), opts,
                            {101});
  }
}

}  // namespace
}  // namespace dynamips::core
