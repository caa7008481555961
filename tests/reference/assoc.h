// reference/assoc.h — a naive CDN association analyzer (§4, Figs. 2-4, 7).
//
// Written from the paper's definitions with std::map and std::set only, no
// FlatMap, arena, radix pass or external sorter, so that CdnAnalyzer's
// sorted-stream implementation has something independent to agree with
// (test_assoc's property tests):
//  * §4.1 pre-processing: a tuple whose v4 and v6 origin ASNs differ is
//    dropped (when the filter is on);
//  * an association run of a /64 is a maximal stretch of its sightings,
//    in record order, that report the same /24 with no gap longer than
//    max_gap_days between consecutive sightings; its duration is
//    last - first + 1 days;
//  * a /64 is single-/24 when all of its sightings report one /24;
//  * a /24's degree is the number of distinct /64s seen with it;
//  * a /64's trailing-zero class is the shortest of /48, /52, /56, /60
//    at which every lower bit of its 64-bit network part is zero.
// Per log, /64s are visited in ascending order and /24s in Prefix4 order,
// which is the order the CSVs print them in.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cdn/rum.h"
#include "core/assoc.h"
#include "core/inference.h"

namespace dynamips::core::reference {

inline ZeroBoundary trailing_zero_class(std::uint64_t net64) {
  const std::pair<int, ZeroBoundary> boundaries[] = {
      {48, ZeroBoundary::k48},
      {52, ZeroBoundary::k52},
      {56, ZeroBoundary::k56},
      {60, ZeroBoundary::k60}};
  for (const auto& [len, cls] : boundaries) {
    const std::uint64_t host_bits = (std::uint64_t(1) << (64 - len)) - 1;
    if ((net64 & host_bits) == 0) return cls;
  }
  return ZeroBoundary::kNone;
}

class ReferenceAssoc {
 public:
  ReferenceAssoc(AssocOptions options, std::set<bgp::Asn> mobile_asns)
      : options_(options), mobile_asns_(std::move(mobile_asns)) {}

  void add_log(const cdn::AssociationLog& log) {
    const bool mobile = mobile_asns_.count(log.asn) > 0;
    AsnAssocStats& asn_stats = by_asn[log.asn];
    asn_stats.asn = log.asn;
    asn_stats.mobile = mobile;
    asn_stats.registry = log.registry;
    const RegistryClass cls{log.registry, mobile};
    std::vector<double>& reg_durations = registry_durations[cls];
    ZeroBoundaryCounts& zeros = zero_counts[cls];

    struct Sighting {
      std::uint32_t day;
      net::Prefix4 v4;
    };
    std::map<std::uint64_t, std::vector<Sighting>> by_64;
    std::map<net::Prefix4, std::set<std::uint64_t>> by_24;
    for (const cdn::AssociationRecord& rec : log.records) {
      if (options_.require_asn_match && rec.asn4 != rec.asn6) {
        ++asn_stats.mismatched;
        ++total_mismatched;
        continue;
      }
      ++asn_stats.tuples;
      ++total_tuples;
      const std::uint64_t net64 = rec.v6_64.address().network64();
      by_64[net64].push_back({rec.day, rec.v4_24});
      by_24[rec.v4_24].insert(net64);
    }

    for (const auto& [net64, sightings] : by_64) {
      ++asn_stats.unique_64s;
      zeros.add(trailing_zero_class(net64));
      std::set<net::Prefix4> v4s;
      for (std::size_t i = 0; i < sightings.size();) {
        const std::uint32_t first = sightings[i].day;
        std::uint32_t last = first;
        std::size_t j = i + 1;
        while (j < sightings.size() && sightings[j].v4 == sightings[i].v4 &&
               sightings[j].day <= last + options_.max_gap_days) {
          last = sightings[j].day;
          ++j;
        }
        const double days = double(std::uint32_t(last - first + 1));
        asn_stats.durations_days.push_back(days);
        reg_durations.push_back(days);
        v4s.insert(sightings[i].v4);
        i = j;
      }
      ++(v4s.size() == 1 ? single_24_64s : multi_24_64s)[mobile];
    }
    for (const auto& [v4, nets] : by_24)
      degrees.emplace_back(std::uint32_t(nets.size()), mobile);
  }

  std::map<bgp::Asn, AsnAssocStats> by_asn;
  std::map<RegistryClass, std::vector<double>> registry_durations;
  std::vector<std::pair<std::uint32_t, bool>> degrees;
  std::map<RegistryClass, ZeroBoundaryCounts> zero_counts;
  std::uint64_t single_24_64s[2] = {0, 0};  ///< [mobile]
  std::uint64_t multi_24_64s[2] = {0, 0};
  std::uint64_t total_tuples = 0;
  std::uint64_t total_mismatched = 0;

 private:
  AssocOptions options_;
  std::set<bgp::Asn> mobile_asns_;
};

}  // namespace dynamips::core::reference
