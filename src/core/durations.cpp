#include "core/durations.h"

namespace dynamips::core {

bool DurationAnalyzer::is_dual_stack(std::size_t v4_obs, std::size_t v6_obs) {
  if (v6_obs == 0) return false;
  if (v4_obs == 0) return true;
  return double(v6_obs) >= kDualStackCoverage * double(v4_obs);
}

void DurationAnalyzer::merge(DurationAnalyzer&& other) {
  for (auto& [asn, stats] : other.by_as_) {
    auto [it, inserted] = by_as_.try_emplace(asn, std::move(stats));
    if (!inserted) it->second.merge(stats);
  }
}

void DurationAnalyzer::add(const ProbeSpans& probe) {
  AsDurationStats& as = by_as_[probe.asn];
  as.asn = probe.asn;
  ++as.probes;
  bool ds = is_dual_stack(probe.v4_obs, probe.v6_obs);
  if (ds) ++as.ds_probes;

  // A change is the boundary between two consecutive spans.
  const std::span<const Span4> spans4 = probe.v4;
  const std::span<const Span6> spans6 = probe.v6;
  const std::size_t changes4 = spans4.empty() ? 0 : spans4.size() - 1;
  const std::size_t changes6 = spans6.empty() ? 0 : spans6.size() - 1;
  if (changes4 > 0 || changes6 > 0) ++as.probes_with_change;

  as.v4_changes += changes4;
  if (ds) as.v4_changes_ds += changes4;
  as.v6_changes += changes6;

  stats::TotalTimeFraction& v4_bucket = ds ? as.v4_ds : as.v4_nds;
  for_each_sandwiched(spans4, options_, [&](const TimedDuration& d) {
    v4_bucket.add(d.duration);
  });
  for_each_sandwiched(spans6, options_,
                      [&](const TimedDuration& d) { as.v6.add(d.duration); });

  // Change k of a family happens at spans[k + 1].first_seen.
  if (ds && changes4 > 0) {
    as.cooccur_total += changes4;
    std::size_t j = 1;
    for (std::size_t i = 1; i < spans4.size(); ++i) {
      const Hour at = spans4[i].first_seen;
      while (j < spans6.size() && spans6[j].first_seen + 1 < at) ++j;
      if (j < spans6.size() && spans6[j].first_seen <= at + 1)
        ++as.cooccur_hits;
    }
  }
}

}  // namespace dynamips::core
