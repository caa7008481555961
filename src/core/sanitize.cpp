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
    : rib_(rib),
      options_(std::move(options)),
      test_addr_(atlas::ripe_test_address()) {
  bad_tag_ids_.reserve(options_.bad_tags.size());
  for (const std::string& bad : options_.bad_tags)
    bad_tag_ids_.push_back(tag_pool().intern(bad));
  std::sort(bad_tag_ids_.begin(), bad_tag_ids_.end());
}

void SanitizeFold::clear() {
  position_ = 0;
  rewrites_ = 0;
  last_hour_ = 0;
  v6_at_last_hour_ = false;
  test_records_ = v4_records_ = v4_public_ = 0;
  v6_records_ = v6_mismatched_ = 0;
  run_count_ = 0;
  multihomed_ = false;
  ambiguous_ = false;
  memo4_ = {};
  memo6_ = {};
}

CleanSpans::CleanSpans(const CleanProbe& probe)
    : head_{probe.probe_id, probe.virtual_index, probe.asn,
            probe.first_hour, probe.last_hour, probe.v4.size(),
            probe.v6.size(), {}, {}},
      v4_(extract_spans4(probe.v4)),
      v6_(extract_spans6(probe.v6)) {}

ProbeSpans CleanSpans::view() const {
  ProbeSpans out = head_;
  out.v4 = v4_;
  out.v6 = v6_;
  return out;
}

// AS attribution: the observations of both families, merged
// chronologically, compress into runs of one ASN. Unrouted observations
// (addresses outside any announcement) join no run. Alternation (more runs
// than max_as_runs) marks the probe multihomed, after which no run is
// kept; a clean A->B sequence splits the probe into virtual probes.
SanitizeFold::Run* Sanitizer::extend(SanitizeFold& f, Hour hour,
                                     bgp::Asn asn) const {
  if (asn == 0 || f.multihomed_) return nullptr;
  if (f.run_count_ > 0) {
    SanitizeFold::Run& last = f.runs_[f.run_count_ - 1];
    if (last.asn == asn) {
      last.last = hour;
      return &last;
    }
  }
  if (std::int64_t(f.run_count_) >= std::int64_t(options_.max_as_runs)) {
    f.multihomed_ = true;
    return nullptr;
  }
  for (std::size_t r = 0; r < f.run_count_; ++r)
    if (f.runs_[r].asn == asn && f.runs_[r].last == hour) f.ambiguous_ = true;
  if (f.run_count_ == f.runs_.size()) f.runs_.emplace_back();
  SanitizeFold::Run& run = f.runs_[f.run_count_++];
  run.asn = asn;
  run.first = run.last = hour;
  run.n4 = run.n6 = 0;
  run.v4.clear();
  run.v6.clear();
  return &run;
}

template <bool kSpans>
void Sanitizer::step4(SanitizeFold& f, Hour hour, net::IPv4Address addr,
                      bool src_public) const {
  // The RIPE pre-deployment test address counts nowhere else.
  if (addr == test_addr_) {
    ++f.test_records_;
    return;
  }
  ++f.v4_records_;
  f.v4_public_ += src_public;
  SanitizeFold::Run* run = extend(f, hour, f.memo4_.of(rib_, addr));
  if (!run) return;
  ++run->n4;
  if constexpr (kSpans) {
    if (!run->v4.empty() && run->v4.back().addr == addr)
      run->v4.back().last_seen = hour;
    else
      run->v4.push_back({hour, hour, addr});
  }
}

template <bool kSpans>
void Sanitizer::step6(SanitizeFold& f, Hour hour,
                      const net::IPv6Address& addr, bool src_matches) const {
  ++f.v6_records_;
  f.v6_mismatched_ += !src_matches;
  SanitizeFold::Run* run = extend(f, hour, f.memo6_.of(rib_, addr));
  if (!run) return;
  ++run->n6;
  if constexpr (kSpans) {
    const std::uint64_t net = addr.network64();
    if (!run->v6.empty() && run->v6.back().net64 == net)
      run->v6.back().last_seen = hour;
    else
      run->v6.push_back({hour, hour, net});
  }
}

void Sanitizer::fold(SanitizeFold& f, const atlas::ProbeSeries& series,
                     std::uint32_t rewrites) const {
  const std::vector<atlas::EchoRecord>& records = series.records;
  const std::size_t n = records.size();
  bool resume = f.rewrites_ == rewrites && f.position_ <= n;
  // A tie across the seam: records of the last folded hour that the merge
  // order puts first (v4) cannot follow that hour's folded v6.
  if (resume && f.v6_at_last_hour_)
    for (std::size_t i = f.position_;
         i < n && records[i].hour == f.last_hour_; ++i)
      if (records[i].family == atlas::Family::kV4) resume = false;
  if (!resume) f.clear();
  f.rewrites_ = rewrites;

  // One hour at a time: that hour's v4 records, then its v6 records, each
  // in series order, whatever order the series holds them in.
  std::size_t i = f.position_;
  while (i < n) {
    const Hour hour = records[i].hour;
    std::size_t end = i;
    bool v6 = false;
    for (; end < n && records[end].hour == hour; ++end) {
      const atlas::EchoRecord& r = records[end];
      if (r.family == atlas::Family::kV4)
        step4<true>(f, hour, r.x_client_ip4,
                    !r.src_addr4.is_rfc1918() && !r.src_addr4.is_rfc6598());
      else
        v6 = true;
    }
    if (v6)
      for (std::size_t j = i; j < end; ++j) {
        const atlas::EchoRecord& r = records[j];
        if (r.family == atlas::Family::kV6)
          step6<true>(f, hour, r.x_client_ip6, r.src_addr6 == r.x_client_ip6);
      }
    f.v6_at_last_hour_ = v6;
    f.last_hour_ = hour;
    f.position_ = i = end;
  }
}

bool Sanitizer::bad_tagged(const std::vector<TagId>& tags) const {
  for (TagId tag : tags)
    if (std::binary_search(bad_tag_ids_.begin(), bad_tag_ids_.end(), tag))
      return true;
  return false;
}

// The filters, in order: disqualifying tags, the atypical-NAT shares over
// the records left once the test address is stripped, then the AS runs.
// Each kept run long enough to analyze goes to on_run(index, run).
template <typename OnRun>
void Sanitizer::emit_runs(const SanitizeFold& f,
                          const std::vector<TagId>& tags,
                          const OnRun& on_run) {
  ++stats_.probes_seen;
  if (bad_tagged(tags)) {
    ++stats_.dropped_bad_tag;
    return;
  }
  stats_.test_address_records += f.test_records_;
  if (f.v4_records_ > 0 && double(f.v4_public_) / double(f.v4_records_) >
                               options_.public_src_threshold) {
    ++stats_.dropped_public_src;
    return;
  }
  if (f.v6_records_ > 0 &&
      double(f.v6_mismatched_) / double(f.v6_records_) >
          options_.v6_mismatch_threshold) {
    ++stats_.dropped_v6_mismatch;
    return;
  }
  if (f.multihomed_) {
    ++stats_.dropped_multihomed;
    return;
  }
  if (f.run_count_ == 0) {
    ++stats_.dropped_short;
    return;
  }
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < f.run_count_; ++i) {
    const SanitizeFold::Run& run = f.runs_[i];
    if (run.last - run.first < options_.min_observation_hours) {
      ++stats_.dropped_short;
      continue;
    }
    on_run(i, run);
    ++kept;
  }
  if (kept > 0) {
    ++stats_.probes_kept;
    stats_.virtual_probes += kept;
    if (kept > 1) ++stats_.split_probes;
  }
}

// A virtual probe's hourly observations: those of its AS within its run's
// hours, each family in series order.
CleanProbe Sanitizer::materialize(const ProbeObservations& probe,
                                  std::size_t index,
                                  const SanitizeFold::Run& run) const {
  CleanProbe cp;
  cp.probe_id = probe.probe_id;
  cp.virtual_index = int(index);
  cp.asn = run.asn;
  cp.first_hour = run.first;
  cp.last_hour = run.last;
  SanitizeFold::Memo<net::IPv4Address> m4;
  for (const Obs4& o : probe.v4)
    if (o.hour >= run.first && o.hour <= run.last && !(o.addr == test_addr_) &&
        m4.of(rib_, o.addr) == run.asn)
      cp.v4.push_back(o);
  SanitizeFold::Memo<net::IPv6Address> m6;
  for (const Obs6& o : probe.v6)
    if (o.hour >= run.first && o.hour <= run.last &&
        m6.of(rib_, o.addr) == run.asn)
      cp.v6.push_back(o);
  return cp;
}

std::vector<CleanProbe> Sanitizer::sanitize(const ProbeObservations& probe) {
  SanitizeFold& f = scratch_;
  f.clear();
  if (!bad_tagged(probe.tags)) {
    // Each family is hour-ordered, so one linear merge gives the
    // chronological sequence; at equal hours v4 comes first.
    std::size_t i4 = 0, i6 = 0;
    while (i4 < probe.v4.size() || i6 < probe.v6.size()) {
      if (i6 == probe.v6.size() ||
          (i4 < probe.v4.size() && probe.v4[i4].hour <= probe.v6[i6].hour)) {
        const Obs4& o = probe.v4[i4++];
        step4<false>(f, o.hour, o.addr, o.src_public);
      } else {
        const Obs6& o = probe.v6[i6++];
        step6<false>(f, o.hour, o.addr, o.src_matches);
      }
    }
  }
  std::vector<CleanProbe> out;
  emit_runs(f, probe.tags, [&](std::size_t i, const SanitizeFold::Run& run) {
    out.push_back(materialize(probe, i, run));
  });
  return out;
}

std::span<const ProbeSpans> Sanitizer::emit(const SanitizeFold& f,
                                            const atlas::ProbeSeries& series) {
  views_.clear();
  const std::uint32_t id = series.meta.probe_id;
  if (!f.ambiguous_) {
    emit_runs(f, series.meta.tags,
              [&](std::size_t i, const SanitizeFold::Run& run) {
                views_.push_back({id, int(i), run.asn, run.first, run.last,
                                  run.n4, run.n6, run.v4, run.v6});
              });
    return views_;
  }
  // Rare: the fold's own spans would miss the observations another run of
  // the same AS holds at the hour they share, so rebuild from the records.
  materialized_.clear();
  const ProbeObservations obs = from_series(series);
  emit_runs(f, series.meta.tags,
            [&](std::size_t i, const SanitizeFold::Run& run) {
              materialized_.emplace_back(materialize(obs, i, run));
            });
  for (const CleanSpans& spans : materialized_)
    views_.push_back(spans.view());
  return views_;
}

void Sanitizer::release_scratch() {
  scratch_ = SanitizeFold();
  views_ = {};
  materialized_ = {};
}

}  // namespace dynamips::core
