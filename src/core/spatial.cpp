#include "core/spatial.h"

#include <algorithm>
#include <utility>

#include "netaddr/ipv6.h"

namespace dynamips::core {

void SpatialAnalyzer::merge(SpatialAnalyzer&& other) {
  for (auto& [asn, stats] : other.by_as_) {
    auto [it, inserted] = by_as_.try_emplace(asn, std::move(stats));
    if (!inserted) it->second.merge(std::move(stats));
  }
}

void SpatialAnalyzer::add_probe(const CleanProbe& probe) {
  AsSpatialStats& as = by_as_[probe.asn];
  as.asn = probe.asn;

  // ----- v4: Table 2 boundary-crossing shares -----
  auto spans4 = extract_spans4(probe.v4);
  for (std::size_t i = 1; i < spans4.size(); ++i) {
    net::IPv4Address prev = spans4[i - 1].addr;
    net::IPv4Address next = spans4[i].addr;
    ++as.v4_changes;
    if (net::slash24_of(prev) != net::slash24_of(next)) ++as.v4_diff_24;
    auto rp = rib_.lookup(prev);
    auto rn = rib_.lookup(next);
    if (!rp || !rn || rp->prefix != rn->prefix) ++as.v4_diff_bgp;
  }

  // ----- v6: CPL histogram, Table 2, Fig. 8 -----
  auto spans6 = extract_spans6(probe.v6);
  std::array<bool, 65> probe_saw_cpl{};
  for (std::size_t i = 1; i < spans6.size(); ++i) {
    std::uint64_t prev = spans6[i - 1].net64;
    std::uint64_t next = spans6[i].net64;
    int cpl = net::common_prefix_length64(prev, next);
    ++as.cpl.changes[std::size_t(cpl)];
    probe_saw_cpl[std::size_t(cpl)] = true;
    ++as.v6_changes;
    auto rp = rib_.lookup(net::IPv6Address{prev, 0});
    auto rn = rib_.lookup(net::IPv6Address{next, 0});
    if (!rp || !rn || rp->prefix != rn->prefix) ++as.v6_diff_bgp;
  }
  for (int c = 0; c <= 64; ++c)
    if (probe_saw_cpl[std::size_t(c)]) ++as.cpl.probes[std::size_t(c)];

  // Fig. 8: unique prefixes per aggregation length. Only meaningful for
  // probes that observed any v6 at all. Unique counts are set cardinalities
  // (order-independent), so sorted scratch vectors in the shard arena
  // replace the former per-call hash/tree sets without changing a single
  // count.
  if (!spans6.empty()) {
    arena_.reset();
    ArenaVector<std::uint64_t> nets{ArenaAllocator<std::uint64_t>(arena_)};
    nets.reserve(spans6.size());
    for (const auto& s : spans6) nets.push_back(s.net64);
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

    ArenaVector<std::uint64_t> prefixes{ArenaAllocator<std::uint64_t>(arena_)};
    prefixes.reserve(nets.size());
    for (int len : kFig8Lengths) {
      if (len == 64) {
        as.unique_prefixes[len].push_back(std::uint32_t(nets.size()));
        continue;
      }
      prefixes.clear();
      for (std::uint64_t n : nets) prefixes.push_back(n >> (64 - len));
      std::sort(prefixes.begin(), prefixes.end());
      auto uniq_end = std::unique(prefixes.begin(), prefixes.end());
      as.unique_prefixes[len].push_back(
          std::uint32_t(uniq_end - prefixes.begin()));
    }

    ArenaVector<std::pair<std::uint64_t, int>> bgp_keys{
        ArenaAllocator<std::pair<std::uint64_t, int>>(arena_)};
    bgp_keys.reserve(nets.size());
    for (std::uint64_t n : nets) {
      auto r = rib_.lookup(net::IPv6Address{n, 0});
      if (r)
        bgp_keys.push_back({r->prefix.address().network64(),
                            r->prefix.length()});
    }
    std::sort(bgp_keys.begin(), bgp_keys.end());
    auto bgp_end = std::unique(bgp_keys.begin(), bgp_keys.end());
    as.unique_bgp.push_back(std::uint32_t(bgp_end - bgp_keys.begin()));
  }
}

}  // namespace dynamips::core
