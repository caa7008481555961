// reference/sanitize.h — a plain reference of Sanitizer::sanitize.
//
// The same filters and run splitting as core/sanitize.cpp, but both
// families are concatenated, std::stable_sort-ed by (hour, v4 before v6),
// and every observation is attributed by its own RIB lookup. The
// sanitizer's linear merge must agree with it on every probe
// (test_sanitize's property tests).
#pragma once

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "atlas/echo.h"
#include "bgp/rib.h"
#include "core/sanitize.h"

namespace dynamips::core::reference {

inline std::vector<CleanProbe> reference_sanitize(const bgp::Rib& rib,
                                           const SanitizeOptions& opt,
                                           const ProbeObservations& probe,
                                           SanitizeStats& stats) {
  ++stats.probes_seen;
  for (TagId tag : probe.tags) {
    const std::string& name = tag_pool().name_of(tag);
    if (std::find(opt.bad_tags.begin(), opt.bad_tags.end(), name) !=
        opt.bad_tags.end()) {
      ++stats.dropped_bad_tag;
      return {};
    }
  }
  std::vector<Obs4> v4;
  for (const Obs4& o : probe.v4) {
    if (o.addr == atlas::ripe_test_address()) {
      ++stats.test_address_records;
    } else {
      v4.push_back(o);
    }
  }
  const std::vector<Obs6>& v6 = probe.v6;
  if (!v4.empty()) {
    const auto pub = std::count_if(v4.begin(), v4.end(),
                                   [](const Obs4& o) { return o.src_public; });
    if (double(pub) / double(v4.size()) > opt.public_src_threshold) {
      ++stats.dropped_public_src;
      return {};
    }
  }
  if (!v6.empty()) {
    const auto mism = std::count_if(
        v6.begin(), v6.end(), [](const Obs6& o) { return !o.src_matches; });
    if (double(mism) / double(v6.size()) > opt.v6_mismatch_threshold) {
      ++stats.dropped_v6_mismatch;
      return {};
    }
  }

  struct Tagged {
    Hour hour;
    int family;  // 0 = v4, 1 = v6
    bgp::Asn asn;
  };
  std::vector<Tagged> tagged;
  for (const Obs4& o : v4) tagged.push_back({o.hour, 0, rib.asn_of(o.addr)});
  for (const Obs6& o : v6) tagged.push_back({o.hour, 1, rib.asn_of(o.addr)});
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return std::tie(a.hour, a.family) <
                            std::tie(b.hour, b.family);
                   });
  std::erase_if(tagged, [](const Tagged& t) { return t.asn == 0; });
  if (tagged.empty()) {
    ++stats.dropped_short;
    return {};
  }
  struct Run {
    bgp::Asn asn;
    Hour first, last;
  };
  std::vector<Run> runs;
  for (const Tagged& t : tagged) {
    if (runs.empty() || runs.back().asn != t.asn)
      runs.push_back({t.asn, t.hour, t.hour});
    runs.back().last = t.hour;
  }
  if (int(runs.size()) > opt.max_as_runs) {
    ++stats.dropped_multihomed;
    return {};
  }

  std::vector<CleanProbe> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (run.last - run.first < opt.min_observation_hours) {
      ++stats.dropped_short;
      continue;
    }
    CleanProbe cp;
    cp.probe_id = probe.probe_id;
    cp.virtual_index = int(i);
    cp.asn = run.asn;
    cp.first_hour = run.first;
    cp.last_hour = run.last;
    for (const Obs4& o : v4)
      if (o.hour >= run.first && o.hour <= run.last &&
          rib.asn_of(o.addr) == run.asn)
        cp.v4.push_back(o);
    for (const Obs6& o : v6)
      if (o.hour >= run.first && o.hour <= run.last &&
          rib.asn_of(o.addr) == run.asn)
        cp.v6.push_back(o);
    out.push_back(std::move(cp));
  }
  if (!out.empty()) {
    ++stats.probes_kept;
    stats.virtual_probes += out.size();
    if (out.size() > 1) ++stats.split_probes;
  }
  return out;
}

}  // namespace dynamips::core::reference
