#include "core/sanitize.h"

#include <algorithm>
#include <utility>

namespace dynamips::core {

ProbeObservations from_series(const atlas::ProbeSeries& series) {
  ProbeObservations out;
  out.probe_id = series.meta.probe_id;
  out.tags = series.meta.tags;
  for (const auto& r : series.records) {
    if (r.family == atlas::Family::kV4) {
      out.v4.push_back(
          {r.hour, r.x_client_ip4,
           !r.src_addr4.is_rfc1918() && !r.src_addr4.is_rfc6598()});
    } else {
      out.v6.push_back({r.hour, r.x_client_ip6,
                        r.src_addr6 == r.x_client_ip6});
    }
  }
  return out;
}

void SanitizeStats::publish(obs::MetricsSink& sink) const {
  sink.counter("sanitize.probes_seen").add(probes_seen);
  sink.counter("sanitize.probes_kept").add(probes_kept);
  sink.counter("sanitize.virtual_probes").add(virtual_probes);
  sink.counter("sanitize.split_probes").add(split_probes);
  sink.counter("sanitize.dropped_short").add(dropped_short);
  sink.counter("sanitize.dropped_bad_tag").add(dropped_bad_tag);
  sink.counter("sanitize.dropped_public_src").add(dropped_public_src);
  sink.counter("sanitize.dropped_v6_mismatch").add(dropped_v6_mismatch);
  sink.counter("sanitize.dropped_multihomed").add(dropped_multihomed);
  sink.counter("sanitize.test_address_records").add(test_address_records);
}

Sanitizer::Sanitizer(const bgp::Rib& rib, SanitizeOptions options)
    : rib_(rib), options_(std::move(options)) {
  bad_tag_ids_.reserve(options_.bad_tags.size());
  for (const std::string& bad : options_.bad_tags)
    bad_tag_ids_.push_back(tag_pool().intern(bad));
  std::sort(bad_tag_ids_.begin(), bad_tag_ids_.end());
}

std::vector<CleanProbe> Sanitizer::sanitize(const ProbeObservations& probe) {
  ++stats_.probes_seen;

  // 1. Disqualifying tags (interned: integer membership test).
  for (TagId tag : probe.tags) {
    if (std::binary_search(bad_tag_ids_.begin(), bad_tag_ids_.end(), tag)) {
      ++stats_.dropped_bad_tag;
      return {};
    }
  }

  // All intermediate vectors live in the shard's bump arena: steady state
  // does no heap allocation per probe.
  arena_.reset();

  // 2. Strip the RIPE pre-deployment test address.
  const net::IPv4Address test_addr = atlas::ripe_test_address();
  ArenaVector<Obs4> v4{ArenaAllocator<Obs4>(arena_)};
  v4.reserve(probe.v4.size());
  for (const auto& o : probe.v4) {
    if (o.addr == test_addr) {
      ++stats_.test_address_records;
      continue;
    }
    v4.push_back(o);
  }

  // 3. Atypical NAT checks.
  if (!v4.empty()) {
    std::size_t pub = 0;
    for (const auto& o : v4) pub += o.src_public;
    if (double(pub) / double(v4.size()) > options_.public_src_threshold) {
      ++stats_.dropped_public_src;
      return {};
    }
  }
  if (!probe.v6.empty()) {
    std::size_t mism = 0;
    for (const auto& o : probe.v6) mism += !o.src_matches;
    if (double(mism) / double(probe.v6.size()) >
        options_.v6_mismatch_threshold) {
      ++stats_.dropped_v6_mismatch;
      return {};
    }
  }

  // 4. AS attribution. asn_of() is a pure function and consecutive
  // observations almost always repeat the previous address, so a one-entry
  // memo per family removes nearly every trie lookup; the attributed ASNs
  // are kept per observation so the emit step below never re-queries the
  // RIB. Merge both families chronologically and compress the ASN sequence
  // into runs; alternation (more runs than a single switch can produce)
  // marks the probe multihomed, while a clean A->B sequence splits the
  // probe into virtual probes.
  ArenaVector<bgp::Asn> asn4{ArenaAllocator<bgp::Asn>(arena_)};
  asn4.reserve(v4.size());
  {
    net::IPv4Address memo_addr;
    bgp::Asn memo_asn = 0;
    bool have_memo = false;
    for (const auto& o : v4) {
      if (!have_memo || !(o.addr == memo_addr)) {
        memo_addr = o.addr;
        memo_asn = rib_.asn_of(o.addr);
        have_memo = true;
      }
      asn4.push_back(memo_asn);
    }
  }
  ArenaVector<bgp::Asn> asn6{ArenaAllocator<bgp::Asn>(arena_)};
  asn6.reserve(probe.v6.size());
  {
    net::IPv6Address memo_addr;
    bgp::Asn memo_asn = 0;
    bool have_memo = false;
    for (const auto& o : probe.v6) {
      if (!have_memo || !(o.addr == memo_addr)) {
        memo_addr = o.addr;
        memo_asn = rib_.asn_of(o.addr);
        have_memo = true;
      }
      asn6.push_back(memo_asn);
    }
  }

  // Each family is hour-ordered (ProbeObservations), so one linear merge
  // gives the chronological sequence; at equal hours v4 comes first.
  // Unrouted observations (addresses outside any announcement) are skipped.
  struct Run {
    bgp::Asn asn;
    Hour first, last;
  };
  ArenaVector<Run> runs{ArenaAllocator<Run>(arena_)};
  auto extend = [&runs](Hour hour, bgp::Asn asn) {
    if (asn == 0) return;
    if (runs.empty() || runs.back().asn != asn) {
      runs.push_back({asn, hour, hour});
    } else {
      runs.back().last = hour;
    }
  };
  std::size_t i4 = 0, i6 = 0;
  while (i4 < v4.size() && i6 < probe.v6.size()) {
    if (probe.v6[i6].hour < v4[i4].hour) {
      extend(probe.v6[i6].hour, asn6[i6]);
      ++i6;
    } else {
      extend(v4[i4].hour, asn4[i4]);
      ++i4;
    }
  }
  for (; i4 < v4.size(); ++i4) extend(v4[i4].hour, asn4[i4]);
  for (; i6 < probe.v6.size(); ++i6) extend(probe.v6[i6].hour, asn6[i6]);
  if (runs.empty()) {
    ++stats_.dropped_short;
    return {};
  }
  if (int(runs.size()) > options_.max_as_runs) {
    ++stats_.dropped_multihomed;
    return {};
  }

  // 5. Emit one CleanProbe per AS run, each long enough to analyze. The
  // per-observation ASNs from step 4 stand in for the former re-lookups.
  std::vector<CleanProbe> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (run.last - run.first < options_.min_observation_hours) {
      ++stats_.dropped_short;
      continue;
    }
    CleanProbe cp;
    cp.probe_id = probe.probe_id;
    cp.virtual_index = int(i);
    cp.asn = run.asn;
    cp.first_hour = run.first;
    cp.last_hour = run.last;
    for (std::size_t j = 0; j < v4.size(); ++j) {
      const Obs4& o = v4[j];
      if (o.hour < run.first || o.hour > run.last) continue;
      if (asn4[j] != run.asn) continue;
      cp.v4.push_back(o);
    }
    for (std::size_t j = 0; j < probe.v6.size(); ++j) {
      const Obs6& o = probe.v6[j];
      if (o.hour < run.first || o.hour > run.last) continue;
      if (asn6[j] != run.asn) continue;
      cp.v6.push_back(o);
    }
    out.push_back(std::move(cp));
  }
  if (!out.empty()) {
    ++stats_.probes_kept;
    stats_.virtual_probes += out.size();
    if (out.size() > 1) ++stats_.split_probes;
  } else if (runs.size() > 0) {
    // all runs too short: already accounted under dropped_short
  }
  return out;
}

}  // namespace dynamips::core
