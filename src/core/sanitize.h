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

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bgp/rib.h"
#include "core/changes.h"
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

/// One virtual probe as the analyzers read it: its AS run and, per family,
/// how many observations the run kept and their spans. The spans point into
/// the SanitizeFold (or CleanSpans) that produced the view.
struct ProbeSpans {
  std::uint32_t probe_id = 0;
  int virtual_index = 0;
  bgp::Asn asn = 0;
  Hour first_hour = 0;
  Hour last_hour = 0;
  std::size_t v4_obs = 0;
  std::size_t v6_obs = 0;
  std::span<const Span4> v4;
  std::span<const Span6> v6;
};

/// A CleanProbe's spans, extracted: the adapter behind the analyzers'
/// add(const CleanProbe&), which forwards to add(const ProbeSpans&).
class CleanSpans {
 public:
  explicit CleanSpans(const CleanProbe& probe);
  ProbeSpans view() const;

 private:
  ProbeSpans head_;  ///< everything but the spans
  std::vector<Span4> v4_;
  std::vector<Span6> v6_;
};

/// One probe's sanitize state, folded from its echo records in the
/// sanitizer's merge order (hour order, v4 before v6 at equal hours). It
/// keeps only what the filters and the analyzers read: the test-address,
/// public-src and v6-mismatch tallies, the AS runs, and per run and family
/// the observation count and the span list. A stream keeps one fold per
/// dataset item and resumes it where the last pass stopped
/// (Sanitizer::fold), so a pass costs the new records plus the spans.
class SanitizeFold {
 public:
  /// Records of the folded series consumed so far.
  std::size_t position() const { return position_; }
  /// Forget everything; the next Sanitizer::fold starts at record 0.
  void clear();

 private:
  friend class Sanitizer;

  struct Run {
    bgp::Asn asn = 0;
    Hour first = 0;
    Hour last = 0;
    std::size_t n4 = 0;  ///< v4 observations the run kept
    std::size_t n6 = 0;
    std::vector<Span4> v4;
    std::vector<Span6> v6;
  };

  /// One-entry memo of the last RIB lookup per family: consecutive
  /// observations almost always repeat the previous address.
  template <typename Addr>
  struct Memo {
    Addr addr{};
    bgp::Asn asn = 0;
    bool have = false;

    bgp::Asn of(const bgp::Rib& rib, const Addr& a) {
      if (!have || !(a == addr)) {
        addr = a;
        asn = rib.asn_of(a);
        have = true;
      }
      return asn;
    }
  };

  std::size_t position_ = 0;
  std::uint32_t rewrites_ = 0;   ///< the dataset item's rewrite count
  Hour last_hour_ = 0;           ///< hour of the last folded record
  bool v6_at_last_hour_ = false; ///< a v6 record was folded at last_hour_

  std::uint64_t test_records_ = 0;  ///< RIPE test-address records
  std::uint64_t v4_records_ = 0;    ///< the rest of the v4 records
  std::uint64_t v4_public_ = 0;     ///< of which src_addr was global
  std::uint64_t v6_records_ = 0;
  std::uint64_t v6_mismatched_ = 0;

  /// runs_[0, run_count_) are live; later entries keep their capacity.
  std::vector<Run> runs_;
  std::size_t run_count_ = 0;
  bool multihomed_ = false;  ///< more runs than max_as_runs
  /// Two runs of one AS meet at an hour (repeated (hour, family) records
  /// only): each virtual probe then also holds the other run's
  /// observations of that hour, and emit() materializes it instead.
  bool ambiguous_ = false;

  Memo<net::IPv4Address> memo4_;
  Memo<net::IPv6Address> memo6_;
};

/// The Appendix A.1 sanitizer. Its filter accounting accumulates across
/// probes; the per-probe state lives in a SanitizeFold, which a caller may
/// keep across calls to resume it (a stream) or let the sanitizer reuse
/// its own scratch fold. sanitize() is the fold plus materialization, so
/// the hourly CleanProbe copies and the span views follow one rule.
class Sanitizer {
 public:
  Sanitizer(const bgp::Rib& rib, SanitizeOptions options);

  /// Sanitize one probe. Returns zero CleanProbes when fully filtered, one
  /// for a typical probe, several for a probe that moved between ASes.
  /// `probe.v4` and `probe.v6` must each be hour-ordered, as from_series()
  /// leaves them; the AS runs follow their merge, v4 first at equal hours.
  std::vector<CleanProbe> sanitize(const ProbeObservations& probe);

  /// Fold `series`' records (hour-ordered, as the readers and the
  /// generator leave them) into `fold`, resuming at fold.position() when
  /// the folded prefix is unchanged. `rewrites` is the dataset item's
  /// rewrite count (io::DatasetBuilder::rewrites): when it moved since the
  /// last fold, or a record of the last folded hour arrives that the merge
  /// order puts before one already folded (a v4 after that hour's v6), the
  /// fold restarts at record 0.
  void fold(SanitizeFold& fold, const atlas::ProbeSeries& series,
            std::uint32_t rewrites = 0) const;

  /// Apply the filters to a folded probe, count the outcome in stats(),
  /// and return one span view per virtual probe. The views stay valid
  /// until the next emit() on this sanitizer or fold() of `fold`.
  std::span<const ProbeSpans> emit(const SanitizeFold& fold,
                                   const atlas::ProbeSeries& series);

  /// Absorb another sanitizer's filter accounting (shard reduction).
  void merge(Sanitizer&& other) { stats_.merge(other.stats_); }
  void finalize() {}
  /// Free the scratch fold and views (a finished pipeline chunk).
  void release_scratch();

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
  template <bool kSpans>
  void step4(SanitizeFold& f, Hour hour, net::IPv4Address addr,
             bool src_public) const;
  template <bool kSpans>
  void step6(SanitizeFold& f, Hour hour, const net::IPv6Address& addr,
             bool src_matches) const;
  SanitizeFold::Run* extend(SanitizeFold& f, Hour hour, bgp::Asn asn) const;
  bool bad_tagged(const std::vector<TagId>& tags) const;
  template <typename OnRun>
  void emit_runs(const SanitizeFold& f, const std::vector<TagId>& tags,
                 const OnRun& on_run);
  CleanProbe materialize(const ProbeObservations& probe, std::size_t index,
                         const SanitizeFold::Run& run) const;

  const bgp::Rib& rib_;
  SanitizeOptions options_;
  SanitizeStats stats_;
  std::vector<TagId> bad_tag_ids_;  ///< options_.bad_tags, interned + sorted
  net::IPv4Address test_addr_;      ///< atlas::ripe_test_address()
  SanitizeFold scratch_;            ///< sanitize()'s fold, reused per probe
  std::vector<ProbeSpans> views_;   ///< emit()'s result
  std::vector<CleanSpans> materialized_;  ///< emit()'s ambiguous probes
};

}  // namespace dynamips::core
