// durations.h — per-AS assignment-duration study (§3.2, Table 1, Fig. 1).
//
// Aggregates sandwiched durations per AS into total-time-fraction
// accumulators, split three ways as in Fig. 1: v4 durations of
// non-dual-stack probes, v4 durations of dual-stack probes, and v6 /64
// durations. Also accumulates the Table-1 change counts and the §3.2
// v4/v6 change co-occurrence statistic.
#pragma once

#include <cstdint>
#include <map>

#include "bgp/rib.h"
#include "core/changes.h"
#include "core/sanitize.h"
#include "stats/flatmap.h"
#include "stats/ttf.h"

namespace dynamips::core {

/// Accumulated duration statistics for one AS.
struct AsDurationStats {
  bgp::Asn asn = 0;
  stats::TotalTimeFraction v4_nds;  ///< v4 durations, non-dual-stack probes
  stats::TotalTimeFraction v4_ds;   ///< v4 durations, dual-stack probes
  stats::TotalTimeFraction v6;      ///< v6 /64 durations

  std::uint64_t probes = 0;              ///< virtual probes in this AS
  std::uint64_t ds_probes = 0;           ///< of which dual-stack
  std::uint64_t probes_with_change = 0;  ///< >= 1 change in either family
  std::uint64_t v4_changes = 0;          ///< all v4 changes
  std::uint64_t v4_changes_ds = 0;       ///< v4 changes on dual-stack probes
  std::uint64_t v6_changes = 0;

  std::uint64_t cooccur_hits = 0;   ///< v4 changes with same-hour v6 change
  std::uint64_t cooccur_total = 0;  ///< v4 changes on dual-stack probes

  /// §3.2 co-occurrence share (e.g. 0.906 for DTAG), or 0 when undefined.
  double cooccurrence() const {
    return cooccur_total ? double(cooccur_hits) / double(cooccur_total) : 0.0;
  }

  /// Checkpoint layout (io/checkpoint.h).
  template <class Ar>
  void fields(Ar& ar) {
    ar(asn, v4_nds, v4_ds, v6, probes, ds_probes, probes_with_change,
       v4_changes, v4_changes_ds, v6_changes, cooccur_hits, cooccur_total);
  }

  /// Absorb another shard's accumulation for the same AS.
  void merge(const AsDurationStats& o) {
    v4_nds.merge(o.v4_nds);
    v4_ds.merge(o.v4_ds);
    v6.merge(o.v6);
    probes += o.probes;
    ds_probes += o.ds_probes;
    probes_with_change += o.probes_with_change;
    v4_changes += o.v4_changes;
    v4_changes_ds += o.v4_changes_ds;
    v6_changes += o.v6_changes;
    cooccur_hits += o.cooccur_hits;
    cooccur_total += o.cooccur_total;
  }
};

/// Streaming per-AS aggregation over cleaned probes.
class DurationAnalyzer {
 public:
  explicit DurationAnalyzer(ChangeOptions options = {})
      : options_(options) {}

  /// A probe counts as dual-stack when it reports v6 echoes consistently —
  /// at least this fraction of its v4 observation count.
  static constexpr double kDualStackCoverage = 0.5;

  void add_probe(const CleanProbe& probe);

  // Sink interface (core/parallel.h): everything here is a per-AS sum, so
  // merging shards in any order reproduces the serial result exactly.
  void add(const CleanProbe& probe) { add_probe(probe); }
  void merge(DurationAnalyzer&& other);
  void finalize() {}

  /// Checkpoint layout: the accumulated per-AS map is the whole state
  /// (options come from the run config on resume).
  template <class Ar>
  void fields(Ar& ar) {
    ar(by_as_);
  }

  // FlatMap iterates ASNs in the same ascending order std::map did, so
  // serialization, CSV emission, and the ordered shard reduction all see
  // identical sequences.
  const stats::FlatMap<bgp::Asn, AsDurationStats>& by_as() const {
    return by_as_;
  }

  /// Finalized per-AS results as the std::map the study structs expose,
  /// without consuming the accumulator (core/parallel.h SnapshotAnalyzer):
  /// every field is a plain sum or a TotalTimeFraction, both of which stay
  /// valid accumulators after the copy, so more probes can follow.
  std::map<bgp::Asn, AsDurationStats> snapshot() const {
    return std::map<bgp::Asn, AsDurationStats>(by_as_.begin(), by_as_.end());
  }

  /// Whether a cleaned probe qualifies as dual-stack for the splits.
  static bool is_dual_stack(const CleanProbe& probe);

 private:
  ChangeOptions options_;
  stats::FlatMap<bgp::Asn, AsDurationStats> by_as_;
};

}  // namespace dynamips::core
