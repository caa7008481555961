#include "core/durations.h"

namespace dynamips::core {

bool DurationAnalyzer::is_dual_stack(const CleanProbe& probe) {
  if (probe.v6.empty()) return false;
  if (probe.v4.empty()) return true;
  return double(probe.v6.size()) >=
         kDualStackCoverage * double(probe.v4.size());
}

void DurationAnalyzer::merge(DurationAnalyzer&& other) {
  for (auto& [asn, stats] : other.by_as_) {
    auto [it, inserted] = by_as_.try_emplace(asn, std::move(stats));
    if (!inserted) it->second.merge(stats);
  }
}

void DurationAnalyzer::add_probe(const CleanProbe& probe) {
  AsDurationStats& as = by_as_[probe.asn];
  as.asn = probe.asn;
  ++as.probes;
  bool ds = is_dual_stack(probe);
  if (ds) ++as.ds_probes;

  auto spans4 = extract_spans4(probe.v4);
  auto spans6 = extract_spans6(probe.v6);
  auto changes4 = extract_changes4(spans4);
  auto changes6 = extract_changes6(spans6);
  if (!changes4.empty() || !changes6.empty()) ++as.probes_with_change;

  as.v4_changes += changes4.size();
  if (ds) as.v4_changes_ds += changes4.size();
  as.v6_changes += changes6.size();

  stats::TotalTimeFraction& v4_bucket = ds ? as.v4_ds : as.v4_nds;
  for (Hour d : sandwiched_durations4(spans4, options_)) v4_bucket.add(d);
  for (Hour d : sandwiched_durations6(spans6, options_)) as.v6.add(d);

  if (ds && !changes4.empty()) {
    as.cooccur_total += changes4.size();
    std::size_t j = 0;
    for (const auto& c4 : changes4) {
      while (j < changes6.size() && changes6[j].at + 1 < c4.at) ++j;
      if (j < changes6.size() && changes6[j].at <= c4.at + 1)
        ++as.cooccur_hits;
    }
  }
}

}  // namespace dynamips::core
