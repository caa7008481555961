// spatial.h — spatial analyses of assignment changes (§5.1, §5.2).
//
// Covers three paper artifacts: the common-prefix-length histograms between
// successive /64 assignments (Fig. 5), the share of changes that cross /24
// and BGP-prefix boundaries (Table 2), and the per-probe counts of unique
// prefixes at each aggregation length (Fig. 8).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "bgp/rib.h"
#include "core/arena.h"
#include "core/changes.h"
#include "core/sanitize.h"
#include "stats/flatmap.h"

namespace dynamips::core {

/// Fig. 5 histogram: per CPL value (0..64), the number of assignment
/// changes with that CPL (orange bars) and the number of probes with at
/// least one such change (blue bars).
struct CplHistogram {
  std::array<std::uint64_t, 65> changes{};
  std::array<std::uint64_t, 65> probes{};

  std::uint64_t total_changes() const {
    std::uint64_t t = 0;
    for (auto c : changes) t += c;
    return t;
  }

  /// Absorb another histogram (shard reduction); bins are plain sums.
  void merge(const CplHistogram& o) {
    for (std::size_t i = 0; i < changes.size(); ++i) {
      changes[i] += o.changes[i];
      probes[i] += o.probes[i];
    }
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(changes, probes);
  }
};

/// The aggregation lengths Fig. 8 plots (plus BGP handled separately).
inline constexpr int kFig8Lengths[] = {64, 56, 48, 40, 32, 24, 16};

/// Accumulated spatial statistics for one AS.
struct AsSpatialStats {
  bgp::Asn asn = 0;
  CplHistogram cpl;

  // Table 2 counters.
  std::uint64_t v4_changes = 0;
  std::uint64_t v4_diff_24 = 0;   ///< changes crossing a /24 boundary
  std::uint64_t v4_diff_bgp = 0;  ///< changes crossing a BGP prefix
  std::uint64_t v6_changes = 0;
  std::uint64_t v6_diff_bgp = 0;

  /// Fig. 8: per aggregation length, one entry per probe = number of unique
  /// prefixes of that length the probe observed. FlatMap iterates lengths
  /// ascending, exactly like the std::map it replaced.
  stats::FlatMap<int, std::vector<std::uint32_t>> unique_prefixes;
  std::vector<std::uint32_t> unique_bgp;  ///< unique v6 BGP prefixes/probe

  double pct_v4_diff_24() const {
    return v4_changes ? 100.0 * double(v4_diff_24) / double(v4_changes) : 0;
  }
  double pct_v4_diff_bgp() const {
    return v4_changes ? 100.0 * double(v4_diff_bgp) / double(v4_changes) : 0;
  }
  double pct_v6_diff_bgp() const {
    return v6_changes ? 100.0 * double(v6_diff_bgp) / double(v6_changes) : 0;
  }

  /// Checkpoint layout (io/checkpoint.h).
  template <class Ar>
  void fields(Ar& ar) {
    ar(asn, cpl, v4_changes, v4_diff_24, v4_diff_bgp, v6_changes, v6_diff_bgp,
       unique_prefixes, unique_bgp);
  }

  /// Absorb another shard's accumulation for the same AS. The per-probe
  /// vectors (Fig. 8) are appended after ours, so merging shards in index
  /// order preserves the serial per-probe ordering.
  void merge(AsSpatialStats&& o) {
    cpl.merge(o.cpl);
    v4_changes += o.v4_changes;
    v4_diff_24 += o.v4_diff_24;
    v4_diff_bgp += o.v4_diff_bgp;
    v6_changes += o.v6_changes;
    v6_diff_bgp += o.v6_diff_bgp;
    for (auto& [len, counts] : o.unique_prefixes) {
      auto& mine = unique_prefixes[len];
      mine.insert(mine.end(), counts.begin(), counts.end());
    }
    unique_bgp.insert(unique_bgp.end(), o.unique_bgp.begin(),
                      o.unique_bgp.end());
  }
};

/// Streaming per-AS spatial aggregation over cleaned probes.
class SpatialAnalyzer {
 public:
  explicit SpatialAnalyzer(const bgp::Rib& rib) : rib_(rib) {}

  void add_probe(const CleanProbe& probe);

  // Sink interface (core/parallel.h). Merge shards in index order: the
  // Fig. 8 per-probe vectors are append-ordered by probe.
  void add(const CleanProbe& probe) { add_probe(probe); }
  void merge(SpatialAnalyzer&& other);
  void finalize() {}
  /// Free the per-call scratch arena (a finished pipeline chunk).
  void release_scratch() { arena_.release(); }

  /// Checkpoint layout: only the per-AS map is state; the RIB reference is
  /// reconstructed from the run config on resume.
  template <class Ar>
  void fields(Ar& ar) {
    ar(by_as_);
  }

  const stats::FlatMap<bgp::Asn, AsSpatialStats>& by_as() const {
    return by_as_;
  }

  /// Finalized per-AS results without consuming the accumulator
  /// (core/parallel.h SnapshotAnalyzer). The per-probe Fig. 8 vectors are
  /// append-ordered; copying them preserves that order, and later adds keep
  /// appending to the accumulator only.
  std::map<bgp::Asn, AsSpatialStats> snapshot() const {
    return std::map<bgp::Asn, AsSpatialStats>(by_as_.begin(), by_as_.end());
  }

 private:
  const bgp::Rib& rib_;
  stats::FlatMap<bgp::Asn, AsSpatialStats> by_as_;
  MonotonicArena arena_;  ///< per-call scratch for the Fig. 8 dedup
};

}  // namespace dynamips::core
