#include "core/inference.h"

#include <algorithm>
#include <vector>

#include "netaddr/ipv6.h"

namespace dynamips::core {

std::optional<SubscriberInference> infer_subscriber_prefix(
    const CleanProbe& probe) {
  return infer_subscriber_prefix(
      std::span<const Span6>(extract_spans6(probe.v6)));
}

std::optional<SubscriberInference> infer_subscriber_prefix(
    std::span<const Span6> spans) {
  if (spans.size() < 2) return std::nullopt;  // need >= 1 change
  int common_zeros = 64;
  for (const auto& s : spans)
    common_zeros = std::min(common_zeros, net::trailing_zero_bits64(s.net64));
  SubscriberInference out;
  out.inferred_len = 64 - common_zeros;
  out.changes = int(spans.size()) - 1;
  return out;
}

std::optional<PoolInference> infer_pool(const CleanProbe& probe,
                                        double min_coverage,
                                        int min_changes) {
  return infer_pool(std::span<const Span6>(extract_spans6(probe.v6)),
                    min_coverage, min_changes);
}

std::optional<PoolInference> infer_pool(std::span<const Span6> spans,
                                        double min_coverage,
                                        int min_changes) {
  if (int(spans.size()) < min_changes + 1) return std::nullopt;
  double total = double(spans.size());
  // Sort the /64s once: for any length, equal length-prefixes of sorted
  // values are contiguous, so the dominant prefix's multiplicity is the
  // longest run of equal shifted values — the same count the per-length
  // hash tally produced, without building 64 hash maps.
  std::vector<std::uint64_t> nets;
  nets.reserve(spans.size());
  for (const auto& s : spans) nets.push_back(s.net64);
  std::sort(nets.begin(), nets.end());
  // Walk from the most specific length down; the first (longest) length
  // whose dominant prefix covers enough assignments is the pool boundary.
  for (int len = 64; len >= 1; --len) {
    int shift = 64 - len;
    std::uint32_t best = 0, run = 0;
    std::uint64_t prev = 0;
    for (std::uint64_t n : nets) {
      std::uint64_t p = n >> shift;
      run = (run && p == prev) ? run + 1 : 1;
      prev = p;
      best = std::max(best, run);
    }
    double coverage = double(best) / total;
    if (coverage >= min_coverage) return PoolInference{len, coverage};
  }
  return std::nullopt;
}

ZeroBoundary classify_trailing_zeros(std::uint64_t net64) {
  int z = net::trailing_zero_bits64(net64);
  if (z >= 16) return ZeroBoundary::k48;
  if (z >= 12) return ZeroBoundary::k52;
  if (z >= 8) return ZeroBoundary::k56;
  if (z >= 4) return ZeroBoundary::k60;
  return ZeroBoundary::kNone;
}

void InferenceCollector::add(const CleanProbe& probe) {
  // Both inferences consume the same /64 spans; extract them once.
  auto spans = extract_spans6(probe.v6);
  std::span<const Span6> view(spans);
  if (auto inf = infer_subscriber_prefix(view))
    subscriber_[probe.asn].push_back(*inf);
  if (auto pool = infer_pool(view)) pool_[probe.asn].push_back(*pool);
}

void InferenceCollector::merge(InferenceCollector&& other) {
  for (auto& [asn, infs] : other.subscriber_) {
    auto [it, inserted] = subscriber_.try_emplace(asn, std::move(infs));
    if (!inserted)
      it->second.insert(it->second.end(), infs.begin(), infs.end());
  }
  for (auto& [asn, infs] : other.pool_) {
    auto [it, inserted] = pool_.try_emplace(asn, std::move(infs));
    if (!inserted)
      it->second.insert(it->second.end(), infs.begin(), infs.end());
  }
}

const char* zero_boundary_name(ZeroBoundary b) {
  switch (b) {
    case ZeroBoundary::kNone: return "none";
    case ZeroBoundary::k60: return "/60";
    case ZeroBoundary::k56: return "/56";
    case ZeroBoundary::k52: return "/52";
    case ZeroBoundary::k48: return "/48";
  }
  return "?";
}

}  // namespace dynamips::core
