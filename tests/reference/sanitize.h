// reference/sanitize.h — a plain reference of Sanitizer::sanitize.
//
// The same filters and run splitting as core/sanitize.cpp, but both
// families are concatenated, std::stable_sort-ed by (hour, v4 before v6),
// and every observation is attributed by its own RIB lookup. The
// sanitizer's linear merge must agree with it on every probe
// (test_sanitize's property tests), and so must its resumable fold:
// replay_fold() below grows one probe batch by batch, as a stream does,
// and compares the resumed fold, a fold from record 0 and this reference
// after every batch (SanitizeFold.* and fuzz_sanitize_fold).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "atlas/echo.h"
#include "bgp/rib.h"
#include "core/sanitize.h"
#include "io/readers.h"

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

/// A virtual probe as one line of text, so views diff readably.
inline std::string describe(const ProbeSpans& p) {
  std::ostringstream os;
  os << p.probe_id << '/' << p.virtual_index << " AS" << p.asn << " ["
     << p.first_hour << ',' << p.last_hour << "] v4 " << p.v4_obs << ':';
  for (const Span4& s : p.v4)
    os << ' ' << s.first_seen << '-' << s.last_seen << '='
       << s.addr.to_string();
  os << " v6 " << p.v6_obs << ':';
  for (const Span6& s : p.v6)
    os << ' ' << s.first_seen << '-' << s.last_seen << '=' << std::hex
       << s.net64 << std::dec;
  return os.str();
}

inline std::vector<std::string> describe(std::span<const ProbeSpans> views) {
  std::vector<std::string> out;
  for (const ProbeSpans& p : views) out.push_back(describe(p));
  return out;
}

/// The reference's virtual probes as the analyzers' span views.
inline std::vector<std::string> reference_views(
    const bgp::Rib& rib, const SanitizeOptions& opt,
    const ProbeObservations& probe, SanitizeStats& stats) {
  std::vector<std::string> out;
  for (const CleanProbe& cp : reference_sanitize(rib, opt, probe, stats))
    out.push_back(describe(CleanSpans(cp).view()));
  return out;
}

inline std::string describe(const SanitizeStats& stats) {
  std::ostringstream os;
  auto put = [&os](const auto&... fields) { ((os << fields << ' '), ...); };
  SanitizeStats copy = stats;
  copy.fields(put);
  return os.str();
}

/// Grow one probe from `batches` (each one probe's records in hour order,
/// as a reader returns them) through a stream's accumulator. After each
/// batch, fold it resumed, fold it from record 0, and sanitize it with the
/// reference; return the first disagreement, or "" when all agree, the
/// accumulated filter accounting included.
inline std::string replay_fold(const bgp::Rib& rib, const SanitizeOptions& opt,
                               std::vector<atlas::ProbeSeries> batches) {
  io::EchoAccumulator dataset;
  Sanitizer resumed(rib, opt), fresh(rib, opt);
  SanitizeFold kept;
  SanitizeStats ref_stats;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<atlas::ProbeSeries> batch;
    batch.push_back(std::move(batches[b]));
    dataset.merge(std::move(batch));
    const atlas::ProbeSeries& series = dataset.items().front();
    const std::uint32_t rewrites = dataset.rewrites().front();
    resumed.fold(kept, series, rewrites);
    const auto got = describe(resumed.emit(kept, series));
    SanitizeFold scratch;
    fresh.fold(scratch, series, rewrites);
    const auto from_zero = describe(fresh.emit(scratch, series));
    const auto want = reference_views(rib, opt, from_series(series), ref_stats);
    auto text = [](const std::vector<std::string>& lines) {
      std::string out;
      for (const std::string& line : lines) out += "\n  " + line;
      return out;
    };
    const std::string at = "after batch " + std::to_string(b) + " (" +
                           std::to_string(series.records.size()) +
                           " records, " + std::to_string(rewrites) +
                           " rewrites): ";
    if (kept.position() != series.records.size())
      return at + "the resumed fold stopped at record " +
             std::to_string(kept.position());
    if (got != from_zero)
      return at + "resumed" + text(got) + "\nfrom record 0" + text(from_zero);
    if (got != want)
      return at + "fold" + text(got) + "\nreference" + text(want);
    for (const Sanitizer* s : {&resumed, &fresh})
      if (describe(s->stats()) != describe(ref_stats))
        return at + "stats " + describe(s->stats()) + "\nreference " +
               describe(ref_stats);
  }
  return "";
}

}  // namespace dynamips::core::reference
