// sanitize.h — the Appendix A.1 dataset sanitizer.
//
// Raw probe histories contain deployments that would corrupt change
// inference: probes observed too briefly, multihomed probes whose reported
// address alternates between upstreams, probes whose owner switched ISP
// (split into per-AS "virtual probes" instead of dropped), probes tagged as
// non-residential, probes not behind a typical NAT, and the RIPE test
// address at the head of histories. The sanitizer applies each filter and
// reports per-reason counts so the filtering itself is auditable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "core/arena.h"
#include "core/intern.h"
#include "core/observations.h"
#include "obs/metrics.h"

namespace dynamips::core {

struct SanitizeOptions {
  /// Minimum observation span per (virtual) probe; shorter ones are dropped.
  Hour min_observation_hours = 730;  // one month
  /// Tags that disqualify a probe.
  std::vector<std::string> bad_tags{"multihomed", "datacentre", "core",
                                    "system-anchor"};
  /// Share of public-src v4 records above which the probe counts as not
  /// being behind a typical NAT.
  double public_src_threshold = 0.05;
  /// Share of v6 records with src/X-Client-IP mismatch above which the
  /// probe is dropped.
  double v6_mismatch_threshold = 0.05;
  /// Number of AS "runs" (maximal same-AS stretches) above which the
  /// sequence counts as alternating, i.e. multihomed. A clean ISP switch
  /// produces exactly 2 runs; alternation produces many.
  int max_as_runs = 2;
};

/// Why a probe (or part of one) was removed.
enum class FilterReason : std::uint8_t {
  kShortDuration,
  kBadTag,
  kPublicSrc,
  kV6SrcMismatch,
  kMultihomed,
  kUnrouted,  ///< observations outside any announced prefix
};

/// A cleaned per-AS observation series — the unit all downstream analyses
/// operate on. Probes that switched ISP contribute one CleanProbe per AS
/// ("virtual probes", Appendix A.1).
struct CleanProbe {
  std::uint32_t probe_id = 0;
  int virtual_index = 0;  ///< 0 for the first AS span, 1 for the next, ...
  bgp::Asn asn = 0;
  Hour first_hour = 0;
  Hour last_hour = 0;
  std::vector<Obs4> v4;
  std::vector<Obs6> v6;

  Hour observed_span() const { return last_hour - first_hour; }
};

/// Filter accounting, mirroring the counts Appendix A.1 reports.
struct SanitizeStats {
  std::uint64_t probes_seen = 0;
  std::uint64_t probes_kept = 0;       ///< raw probes with >= 1 CleanProbe
  std::uint64_t virtual_probes = 0;    ///< CleanProbes emitted
  std::uint64_t split_probes = 0;      ///< probes split across ASes
  std::uint64_t dropped_short = 0;
  std::uint64_t dropped_bad_tag = 0;
  std::uint64_t dropped_public_src = 0;
  std::uint64_t dropped_v6_mismatch = 0;
  std::uint64_t dropped_multihomed = 0;
  std::uint64_t test_address_records = 0;  ///< 193.0.0.78 records removed

  /// Absorb another shard's accounting; all fields are plain sums.
  void merge(const SanitizeStats& o) {
    probes_seen += o.probes_seen;
    probes_kept += o.probes_kept;
    virtual_probes += o.virtual_probes;
    split_probes += o.split_probes;
    dropped_short += o.dropped_short;
    dropped_bad_tag += o.dropped_bad_tag;
    dropped_public_src += o.dropped_public_src;
    dropped_v6_mismatch += o.dropped_v6_mismatch;
    dropped_multihomed += o.dropped_multihomed;
    test_address_records += o.test_address_records;
  }

  /// Export every accept/reject count as a "sanitize.*" counter, so the
  /// Appendix A.1 filter accounting shows up in the pipeline's metrics
  /// document next to the throughput numbers.
  void publish(obs::MetricsSink& sink) const;

  /// Checkpoint layout (io/checkpoint.h).
  template <class Ar>
  void fields(Ar& ar) {
    ar(probes_seen, probes_kept, virtual_probes, split_probes, dropped_short,
       dropped_bad_tag, dropped_public_src, dropped_v6_mismatch,
       dropped_multihomed, test_address_records);
  }
};

/// Stateless per-probe sanitizer (stats accumulate across calls).
class Sanitizer {
 public:
  Sanitizer(const bgp::Rib& rib, SanitizeOptions options);

  /// Sanitize one probe. Returns zero CleanProbes when fully filtered, one
  /// for a typical probe, several for a probe that moved between ASes.
  /// `probe.v4` and `probe.v6` must each be hour-ordered, as from_series()
  /// leaves them; the AS runs follow their merge, v4 first at equal hours.
  std::vector<CleanProbe> sanitize(const ProbeObservations& probe);

  /// Absorb another sanitizer's filter accounting (shard reduction).
  void merge(Sanitizer&& other) { stats_.merge(other.stats_); }
  void finalize() {}
  /// Free the per-call scratch arena (a finished pipeline chunk).
  void release_scratch() { arena_.release(); }

  /// Checkpoint layout: only the accumulated accounting is state; the RIB
  /// reference and options are reconstructed from the run config.
  template <class Ar>
  void fields(Ar& ar) {
    ar(stats_);
  }

  const SanitizeStats& stats() const { return stats_; }

  /// Snapshot of the filter accounting (core/parallel.h SnapshotAnalyzer):
  /// plain sums, so the copy is the finalized view and sanitizing more
  /// probes afterwards keeps accumulating.
  SanitizeStats snapshot() const { return stats_; }

 private:
  const bgp::Rib& rib_;
  SanitizeOptions options_;
  SanitizeStats stats_;
  std::vector<TagId> bad_tag_ids_;  ///< options_.bad_tags, interned + sorted
  MonotonicArena arena_;            ///< per-call scratch (reset each probe)
};

}  // namespace dynamips::core
