// assoc.h — CDN association analyses (§4, Figs. 2-4, Fig. 7).
//
// Streaming aggregation over per-ISP association logs:
//  * pre-processing: discard tuples whose v4 and v6 origin ASNs differ
//    (multi-homing / WiFi-cellular switching), as in §4.1;
//  * association durations: per /64, the run of days over which it kept
//    reporting the same /24 (Fig. 2 per-ISP CDFs, Fig. 3 registry boxes);
//  * cardinality: unique /64s per /24, unweighted and hit-weighted
//    (Fig. 4), and the inverse connectivity of each /64;
//  * trailing-zero classification of every unique /64 per registry (Fig. 7).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "cdn/rum.h"
#include "core/arena.h"
#include "core/inference.h"
#include "stats/flatmap.h"
#include "stats/summary.h"

namespace dynamips::core {

struct AssocOptions {
  /// Apply the ASN-match pre-filter (§4.1). Disabling it is the ablation
  /// discussed in DESIGN.md.
  bool require_asn_match = true;
  /// Maximum gap (days) inside one association run; a /64 silent for longer
  /// starts a new run when it reappears.
  std::uint32_t max_gap_days = 14;
  /// External-merge spill budget for add_log's per-shard sort scratch, in
  /// MiB. 0 (the default) sorts in memory with radix passes; a positive
  /// budget bounds the working set per shard — sorted runs spill to temp
  /// files and merge back (stats/extsort.h). Results are byte-identical at
  /// every budget, so neither knob enters the config fingerprint.
  std::uint64_t spill_mb = 0;
  /// Spill directory; empty uses std::filesystem::temp_directory_path().
  std::string spill_dir;
};

/// Aggregated duration statistics for one ASN.
struct AsnAssocStats {
  bgp::Asn asn = 0;
  bool mobile = false;
  bgp::Registry registry{};
  std::vector<double> durations_days;  ///< association durations
  std::uint64_t tuples = 0;            ///< accepted association tuples
  std::uint64_t mismatched = 0;        ///< dropped by the ASN filter
  std::uint64_t unique_64s = 0;

  /// Absorb another shard's stats for the same ASN; durations are appended
  /// after ours, so merging shards in index order preserves log order.
  void merge(const AsnAssocStats& o) {
    durations_days.insert(durations_days.end(), o.durations_days.begin(),
                          o.durations_days.end());
    tuples += o.tuples;
    mismatched += o.mismatched;
    unique_64s += o.unique_64s;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(asn, mobile, registry, durations_days, tuples, mismatched, unique_64s);
  }
};

/// Key for (registry, mobile) groupings.
struct RegistryClass {
  bgp::Registry registry{};
  bool mobile = false;
  friend bool operator<(const RegistryClass& a, const RegistryClass& b) {
    if (a.registry != b.registry) return a.registry < b.registry;
    return a.mobile < b.mobile;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(registry, mobile);
  }
};

/// Finalized, read-only view of a CdnAnalyzer's accumulated results. The
/// analyzer itself is non-copyable (it owns a scratch arena) and its
/// accumulation is append-ordered, so streaming snapshots copy the result
/// state out into this plain value: default-constructible, copyable, and
/// mirroring the analyzer's accessor surface so result emission
/// (io/results_io.h) and the benches work on either. Taking a snapshot
/// does not consume the analyzer — later add_log() calls keep
/// accumulating and a later snapshot reflects them.
class CdnSnapshot {
 public:
  CdnSnapshot() = default;

  const stats::FlatMap<bgp::Asn, AsnAssocStats>& by_asn() const {
    return by_asn_;
  }
  const stats::FlatMap<RegistryClass, std::vector<double>>&
  registry_durations() const {
    return registry_durations_;
  }
  const std::vector<std::pair<std::uint32_t, bool>>& degrees() const {
    return degrees_;
  }
  const stats::FlatMap<RegistryClass, ZeroBoundaryCounts>& zero_counts()
      const {
    return zero_counts_;
  }
  double fraction_64s_with_single_24(bool mobile) const {
    std::uint64_t s = single_24_64s_[mobile];
    std::uint64_t m = multi_24_64s_[mobile];
    return (s + m) ? double(s) / double(s + m) : 0.0;
  }
  /// /64s that saw exactly one /24, and those that saw several.
  std::uint64_t single_24_64s(bool mobile) const {
    return single_24_64s_[mobile];
  }
  std::uint64_t multi_24_64s(bool mobile) const {
    return multi_24_64s_[mobile];
  }
  std::uint64_t total_tuples() const { return total_tuples_; }
  std::uint64_t total_mismatched() const { return total_mismatched_; }

 private:
  friend class CdnAnalyzer;

  stats::FlatMap<bgp::Asn, AsnAssocStats> by_asn_;
  stats::FlatMap<RegistryClass, std::vector<double>> registry_durations_;
  std::vector<std::pair<std::uint32_t, bool>> degrees_;
  stats::FlatMap<RegistryClass, ZeroBoundaryCounts> zero_counts_;
  std::uint64_t single_24_64s_[2] = {0, 0};
  std::uint64_t multi_24_64s_[2] = {0, 0};
  std::uint64_t total_tuples_ = 0;
  std::uint64_t total_mismatched_ = 0;
};

/// Streaming CDN analyzer. Feed one AssociationLog at a time; per-log
/// working state is discarded after each call, so the multi-billion-tuple
/// scale of the real dataset is handled by construction.
class CdnAnalyzer {
 public:
  CdnAnalyzer(AssocOptions options,
              std::unordered_set<bgp::Asn> mobile_asns)
      : options_(options), mobile_asns_(std::move(mobile_asns)) {}

  void add_log(const cdn::AssociationLog& log);

  // Sink interface (core/parallel.h). Per-log output is a pure function of
  // the log, and merge appends the other shard's append-ordered vectors
  // after ours, so shards merged in index order are byte-identical to the
  // serial run.
  void add(const cdn::AssociationLog& log) { add_log(log); }
  void merge(CdnAnalyzer&& other);
  void finalize() {}
  /// Free the per-log scratch arena (a finished pipeline chunk).
  void release_scratch() { arena_.release(); }

  /// Checkpoint layout (io/checkpoint.h): every accumulated map and
  /// vector, bit-exact; options and the mobile-ASN set are reconstructed
  /// from the run config on resume.
  template <class Ar>
  void fields(Ar& ar) {
    ar(by_asn_, registry_durations_, degrees_, zero_counts_,
       single_24_64s_[0], multi_24_64s_[0], single_24_64s_[1],
       multi_24_64s_[1], total_tuples_, total_mismatched_);
  }

  /// Per-ASN stats (Fig. 2 inputs). FlatMap iterates ASNs in the same
  /// ascending order the former std::map did.
  const stats::FlatMap<bgp::Asn, AsnAssocStats>& by_asn() const {
    return by_asn_;
  }

  /// Per (registry, mobile) association durations (Fig. 3 inputs).
  const stats::FlatMap<RegistryClass, std::vector<double>>&
  registry_durations() const {
    return registry_durations_;
  }

  /// Per-/24 degrees: (unique /64 count, mobile flag), one entry per /24
  /// (Fig. 4 inputs).
  const std::vector<std::pair<std::uint32_t, bool>>& degrees() const {
    return degrees_;
  }

  /// Share of /64s associated with exactly one /24 (the 87% statistic).
  double fraction_64s_with_single_24(bool mobile) const;

  /// Fig. 7: trailing-zero classes per registry, fixed and mobile.
  const stats::FlatMap<RegistryClass, ZeroBoundaryCounts>& zero_counts()
      const {
    return zero_counts_;
  }

  std::uint64_t total_tuples() const { return total_tuples_; }
  std::uint64_t total_mismatched() const { return total_mismatched_; }

  /// External-merge runs spilled so far (0 with an in-memory budget).
  /// Observability only: deliberately NOT serialized and NOT part of
  /// snapshots, so a spilled run's checkpoints and results stay
  /// byte-identical to an in-memory run's.
  std::uint64_t spill_runs() const { return spill_runs_; }
  std::uint64_t spill_bytes() const { return spill_bytes_; }

  /// Copy the accumulated results into a finalized read-only view
  /// (core/parallel.h SnapshotAnalyzer). The accumulation is purely
  /// append-ordered, so the copy is already canonical; the analyzer keeps
  /// accepting logs afterwards.
  CdnSnapshot snapshot() const;

 private:
  AssocOptions options_;
  std::unordered_set<bgp::Asn> mobile_asns_;

  stats::FlatMap<bgp::Asn, AsnAssocStats> by_asn_;
  stats::FlatMap<RegistryClass, std::vector<double>> registry_durations_;
  std::vector<std::pair<std::uint32_t, bool>> degrees_;
  stats::FlatMap<RegistryClass, ZeroBoundaryCounts> zero_counts_;
  MonotonicArena arena_;  ///< per-log scratch for the radix sorts
  // Inverse connectivity tallies: /64s by how many distinct /24s they saw.
  std::uint64_t single_24_64s_[2] = {0, 0};  // [mobile]
  std::uint64_t multi_24_64s_[2] = {0, 0};
  std::uint64_t total_tuples_ = 0;
  std::uint64_t total_mismatched_ = 0;
  std::uint64_t spill_runs_ = 0;   ///< not serialized (see spill_runs())
  std::uint64_t spill_bytes_ = 0;  ///< not serialized
};

}  // namespace dynamips::core
