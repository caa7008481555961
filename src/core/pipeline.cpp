#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/resource.h"
#include "core/shutdown.h"
#include "io/columnar.h"
#include "obs/metrics.h"

namespace dynamips::core {

namespace {

/// Clock read inside a per-item body. The metrics-off instantiation
/// compiles it to a constant: AtlasStudyConfig::metrics promises no clock
/// read when metrics are off.
template <bool kOn>
std::uint64_t tick() {
  if constexpr (kOn)
    return obs::now_ns();
  else
    return 0;
}

// --- item sources ---------------------------------------------------------
//
// Where analysis_pass reads item i from; the generator and file paths
// differ only here. A simulator builds item i by value, as a pure function
// of (config, i), so shards generate concurrently and race on nothing. A
// loaded dataset hands out a const reference, so no item is copied.
// `cost(i)` estimates item i's relative work; the round loop cuts and
// orders its chunks by it, so it steers scheduling and never results.
// Generator runs alone time the `<study>.generate` phase and publish the
// simulator's metrics; file runs fold their `ingest` sink (never
// checkpointed) in with the shard sinks.

struct AtlasGenerated {
  static constexpr bool kGenerated = true;
  const atlas::AtlasSimulator& sim;
  obs::MetricsSink* ingest = nullptr;

  std::size_t size() const { return sim.probe_count(); }
  atlas::ProbeSeries item(std::size_t i) const { return sim.series_for(i); }
  std::uint64_t cost(std::size_t) const { return 1; }
  void publish(obs::MetricsSink& m) const { sim.publish_metrics(m); }
};

struct CdnGenerated {
  static constexpr bool kGenerated = true;
  const cdn::CdnSimulator& sim;
  obs::MetricsSink* ingest = nullptr;

  std::size_t size() const { return sim.entry_count(); }
  cdn::AssociationLog item(std::size_t i) const { return sim.generate(i); }
  std::uint64_t cost(std::size_t i) const { return sim.daily_samples(i); }
  void publish(obs::MetricsSink& m) const { sim.publish_metrics(m); }
};

template <typename Item>
struct Loaded {
  static constexpr bool kGenerated = false;
  const std::vector<Item>& dataset;
  obs::MetricsSink* ingest;

  std::size_t size() const { return dataset.size(); }
  const Item& item(std::size_t i) const { return dataset[i]; }
  std::uint64_t cost(std::size_t i) const { return dataset[i].records.size(); }
  void publish(obs::MetricsSink&) const {}
};

// --- shards ---------------------------------------------------------------
//
// One shard's private state: its analyzers plus a metrics sink that merges
// through the same ordered reduction, so counter totals are independent of
// the thread count. A shard holds either a checkpoint range's accumulated
// state or one chunk of a round; a chunk frees its scratch arenas
// (release_scratch) as soon as it ends and is folded into its range after
// the round. Each shard type writes its study's per-item body once, for
// every source, as `process<kMetered>`: the metrics-off instantiation
// compiles every metric block away (no clock read, no metric call), so the
// plain and instrumented loops cannot drift apart. Metric handles are
// resolved once per chunk; the hot loop does no map lookups.

struct AtlasShard {
  using Study = AtlasStudy;
  static constexpr const char* kName = "atlas";

  Sanitizer sanitizer;
  DurationAnalyzer durations;
  SpatialAnalyzer spatial;
  InferenceCollector inference;
  obs::MetricsSink metrics;

  AtlasShard(const bgp::Rib& rib, const SanitizeOptions& sanitize,
             const ChangeOptions& changes)
      : sanitizer(rib, sanitize), durations(changes), spatial(rib) {}

  template <bool kMetered, typename Source>
  void process(const Source& source, std::size_t from, std::size_t to) {
    obs::Counter *c_probes = nullptr, *c_records = nullptr, *c_clean = nullptr;
    obs::Histogram* h_records = nullptr;
    obs::PhaseStats *p_gen = nullptr, *p_san = nullptr, *p_dur = nullptr,
                    *p_spa = nullptr, *p_inf = nullptr;
    if constexpr (kMetered) {
      c_probes = &metrics.counter(Source::kGenerated ? "atlas.probes_generated"
                                                     : "atlas.probes_loaded");
      c_records = &metrics.counter("atlas.echo_records");
      c_clean = &metrics.counter("atlas.clean_probes");
      h_records = &metrics.histogram("atlas.records_per_probe", 0, 6, 5);
      if constexpr (Source::kGenerated)
        p_gen = &metrics.phase("atlas.generate");
      p_san = &metrics.phase("atlas.sanitize");
      p_dur = &metrics.phase("atlas.durations.add");
      p_spa = &metrics.phase("atlas.spatial.add");
      p_inf = &metrics.phase("atlas.inference.add");
    }
    for (std::size_t i = from; i < to; ++i) {
      [[maybe_unused]] const std::uint64_t t0 =
          tick<kMetered && Source::kGenerated>();
      decltype(auto) series = source.item(i);
      ProbeObservations obs = from_series(series);
      [[maybe_unused]] const std::uint64_t t1 = tick<kMetered>();
      if constexpr (kMetered) {
        if constexpr (Source::kGenerated) p_gen->record(t1 - t0);
        c_probes->add(1);
        c_records->add(series.records.size());
        h_records->record(double(series.records.size()));
      }
      auto cleaned = sanitizer.sanitize(obs);
      if constexpr (kMetered) {
        p_san->record(obs::now_ns() - t1);
        c_clean->add(cleaned.size());
      }
      for (const CleanProbe& cp : cleaned) {
        [[maybe_unused]] const std::uint64_t a0 = tick<kMetered>();
        durations.add(cp);
        [[maybe_unused]] const std::uint64_t a1 = tick<kMetered>();
        spatial.add(cp);
        [[maybe_unused]] const std::uint64_t a2 = tick<kMetered>();
        inference.add(cp);
        if constexpr (kMetered) {
          const std::uint64_t a3 = obs::now_ns();
          p_dur->record(a1 - a0);
          p_spa->record(a2 - a1);
          p_inf->record(a3 - a2);
        }
      }
    }
  }

  void merge(AtlasShard&& other) {
    sanitizer.merge(std::move(other.sanitizer));
    durations.merge(std::move(other.durations));
    spatial.merge(std::move(other.spatial));
    inference.merge(std::move(other.inference));
    metrics.merge(std::move(other.metrics));
  }

  void release_scratch() {
    sanitizer.release_scratch();
    spatial.release_scratch();
  }

  void finalize() {
    sanitizer.finalize();
    durations.finalize();
    spatial.finalize();
    inference.finalize();
  }

  /// Non-consuming extraction: snapshot() yields the finalized results and
  /// leaves the accumulators intact (the streaming driver relies on this).
  void extract(AtlasStudy& study) const {
    study.sanitize = sanitizer.snapshot();
    study.durations = durations.snapshot();
    study.spatial = spatial.snapshot();
    InferenceSnapshot inferred = inference.snapshot();
    study.subscriber_inference = std::move(inferred.subscriber);
    study.pool_inference = std::move(inferred.pools);
  }

  /// Study-level metrics, recorded on the reduced root shard.
  void publish(const AtlasStudy& study) { study.sanitize.publish(metrics); }

  template <class Ar>
  void fields(Ar& ar) {
    ar(sanitizer, durations, spatial, inference, metrics);
  }
};

struct CdnShard {
  using Study = CdnStudy;
  static constexpr const char* kName = "cdn";

  CdnAnalyzer analyzer;
  obs::MetricsSink metrics;

  CdnShard(const AssocOptions& options,
           const std::unordered_set<bgp::Asn>& mobile_asns)
      : analyzer(options, mobile_asns) {}

  template <bool kMetered, typename Source>
  void process(const Source& source, std::size_t from, std::size_t to) {
    obs::Counter *c_logs = nullptr, *c_tuples = nullptr;
    obs::Histogram* h_tuples = nullptr;
    obs::PhaseStats *p_gen = nullptr, *p_add = nullptr;
    if constexpr (kMetered) {
      c_logs = &metrics.counter(Source::kGenerated ? "cdn.logs_generated"
                                                   : "cdn.logs_loaded");
      c_tuples = &metrics.counter("cdn.association_tuples");
      h_tuples = &metrics.histogram("cdn.tuples_per_log", 0, 8, 5);
      if constexpr (Source::kGenerated) p_gen = &metrics.phase("cdn.generate");
      p_add = &metrics.phase("cdn.analyzer.add");
    }
    for (std::size_t i = from; i < to; ++i) {
      [[maybe_unused]] const std::uint64_t t0 =
          tick<kMetered && Source::kGenerated>();
      decltype(auto) log = source.item(i);
      [[maybe_unused]] const std::uint64_t t1 = tick<kMetered>();
      if constexpr (kMetered) {
        if constexpr (Source::kGenerated) p_gen->record(t1 - t0);
        c_logs->add(1);
        c_tuples->add(log.records.size());
        h_tuples->record(double(log.records.size()));
      }
      analyzer.add(log);
      if constexpr (kMetered) p_add->record(obs::now_ns() - t1);
    }
  }

  void merge(CdnShard&& other) {
    analyzer.merge(std::move(other.analyzer));
    metrics.merge(std::move(other.metrics));
  }

  void release_scratch() { analyzer.release_scratch(); }

  void finalize() { analyzer.finalize(); }

  void extract(CdnStudy& study) const { study.analyzer = analyzer.snapshot(); }

  void publish(const CdnStudy& study) {
    metrics.counter("cdn.tuples_kept").add(study.analyzer.total_tuples());
    metrics.counter("cdn.tuples_mismatched")
        .add(study.analyzer.total_mismatched());
    // Spill accounting lives on the analyzer, never in snapshots or
    // checkpoints; resumed shards therefore report only their own spills.
    metrics.counter("cdn.spill_runs").add(analyzer.spill_runs());
    metrics.counter("cdn.spill_bytes").add(analyzer.spill_bytes());
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(analyzer, metrics);
  }
};

/// Ratio of the busiest lane's time to the mean over all lanes — 1.0 is
/// perfectly balanced. Recorded as a gauge so threads left waiting on the
/// slowest one are visible.
double imbalance_ratio(const std::vector<std::uint64_t>& lane_ns) {
  if (lane_ns.empty()) return 1.0;
  std::uint64_t max = 0, sum = 0;
  for (std::uint64_t ns : lane_ns) {
    sum += ns;
    if (ns > max) max = ns;
  }
  double mean = double(sum) / double(lane_ns.size());
  return mean > 0 ? double(max) / mean : 1.0;
}

// ----------------------------------------------------- crash-safe driving

/// Round size when supervision is active but no explicit interval was set:
/// small enough that a shutdown token is honored promptly, large enough
/// that the per-round dispatch barrier is noise.
constexpr std::uint64_t kDefaultRoundItems = 256;

/// Chunks a round is cut into per pool thread: enough that the costliest
/// items start first and cheap ones fill the gaps behind them, few enough
/// that the per-chunk analyzer sets and their fold stay noise.
constexpr std::uint64_t kChunksPerThread = 4;

/// The checkpoint layout: the shard partition plus each shard's next
/// unprocessed index. Fresh runs derive it from the thread count; resumed
/// runs restore it from the checkpoint, which is what makes a resumed run
/// byte-identical to the original regardless of either run's thread
/// setting. It does not decide the dispatch: every round is cut into
/// chunks afresh (cut_round).
struct ShardPlan {
  std::vector<ShardRange> ranges;
  std::vector<std::size_t> next;
};

// --- config fingerprints -------------------------------------------------
//
// A fingerprint is FNV-1a over a canonical serialization of every parameter
// that influences study results. Resuming under a different fingerprint is
// rejected: the restored analyzer state would silently mix two experiments.
// The thread knob is deliberately excluded (results are thread-invariant);
// whether metrics are enabled is included, because a resumed run cannot
// reconstruct the metric records of items processed before the interrupt.

void fingerprint_atlas_analysis(io::ckpt::Writer& w,
                                const SanitizeOptions& sanitize,
                                const ChangeOptions& changes,
                                const std::vector<simnet::IspProfile>& isps,
                                bool metrics) {
  w.u64(sanitize.min_observation_hours);
  w.u64(sanitize.bad_tags.size());
  for (const auto& tag : sanitize.bad_tags) w.str(tag);
  w.f64(sanitize.public_src_threshold);
  w.f64(sanitize.v6_mismatch_threshold);
  w.i32(sanitize.max_as_runs);
  w.u64(changes.max_boundary_gap);
  w.u64(isps.size());
  for (const auto& isp : isps) w.u32(isp.asn);
  w.u8(metrics ? 1 : 0);
}

std::uint64_t atlas_gen_fingerprint(
    const std::vector<simnet::IspProfile>& isps,
    const AtlasStudyConfig& config) {
  io::ckpt::Writer w;
  w.str("atlas.gen");
  w.u64(config.atlas.window_hours);
  w.f64(config.atlas.probe_scale);
  w.u64(config.atlas.seed);
  w.f64(config.atlas.short_lived_share);
  w.f64(config.atlas.multihomed_share);
  w.f64(config.atlas.as_switch_share);
  w.f64(config.atlas.bad_tag_share);
  w.f64(config.atlas.public_src_share);
  w.f64(config.atlas.test_addr_share);
  w.f64(config.atlas.hourly_presence);
  w.f64(config.atlas.eui64_share);
  fingerprint_atlas_analysis(w, config.sanitize, config.changes, isps,
                             config.metrics != nullptr);
  return io::ckpt::fnv1a(w.buffer());
}

/// The tag and input files of a file-driven run's fingerprint. Streams pass
/// no paths: a stream's batch list grows over its lifetime and is validated
/// through the checkpoint's consumed-batch high-water mark instead.
void fingerprint_inputs(io::ckpt::Writer& w, const char* tag,
                        const std::vector<std::string>* paths) {
  w.str(tag);
  if (!paths) return;
  w.u64(paths->size());
  for (const auto& path : *paths) w.str(path);
}

void fingerprint_reader(io::ckpt::Writer& w, const io::ReaderOptions& r) {
  w.f64(r.max_reject_fraction);
  w.u64(r.max_consecutive_rejects);
}

/// Fingerprint of an Atlas run over the files `paths`, or of an Atlas
/// stream when `paths` is null.
std::uint64_t atlas_file_fingerprint(
    const std::vector<std::string>* paths,
    const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config) {
  io::ckpt::Writer w;
  fingerprint_inputs(w, paths ? "atlas.files" : "atlas.stream", paths);
  fingerprint_reader(w, config.reader);
  fingerprint_atlas_analysis(w, config.sanitize, config.changes, isps,
                             config.metrics != nullptr);
  return io::ckpt::fnv1a(w.buffer());
}

void fingerprint_assoc(io::ckpt::Writer& w, const AssocOptions& assoc) {
  w.u8(assoc.require_asn_match ? 1 : 0);
  w.u32(assoc.max_gap_days);
}

std::uint64_t cdn_gen_fingerprint(
    const std::vector<cdn::PopulationEntry>& population,
    const CdnStudyConfig& config) {
  io::ckpt::Writer w;
  w.str("cdn.gen");
  w.i32(config.cdn.days);
  w.f64(config.cdn.subscriber_scale);
  w.u64(config.cdn.seed);
  w.f64(config.cdn.daily_activity);
  w.f64(config.cdn.cross_network_noise);
  fingerprint_assoc(w, config.assoc);
  w.u64(population.size());
  for (const auto& entry : population) {
    w.u32(entry.isp.asn);
    w.i32(entry.subscribers);
  }
  w.u8(config.metrics != nullptr ? 1 : 0);
  return io::ckpt::fnv1a(w.buffer());
}

/// Fingerprint of a CDN run over the files `paths`, or of a CDN stream
/// when `paths` is null.
std::uint64_t cdn_file_fingerprint(const std::vector<std::string>* paths,
                                   const CdnFileStudyConfig& config) {
  io::ckpt::Writer w;
  fingerprint_inputs(w, paths ? "cdn.files" : "cdn.stream", paths);
  fingerprint_assoc(w, config.assoc);
  fingerprint_reader(w, config.reader);
  // Unordered-set iteration order is not canonical; sort before hashing.
  std::vector<bgp::Asn> mobile(config.mobile_asns.begin(),
                               config.mobile_asns.end());
  std::sort(mobile.begin(), mobile.end());
  w.u64(mobile.size());
  for (bgp::Asn asn : mobile) w.u32(asn);
  w.u64(config.registries.size());
  for (const auto& [asn, registry] : config.registries) {
    w.u32(asn);
    w.u8(std::uint8_t(registry));
  }
  w.u8(config.metrics != nullptr ? 1 : 0);
  return io::ckpt::fnv1a(w.buffer());
}

// --- resume validation and state restore ---------------------------------

/// The contiguous item slice this process owns: all of [0, item_count)
/// normally, slice shard_index of shard_count in multi-process mode.
/// Processes whose slice is empty (more shards than items) get an empty
/// range at the end.
ShardRange process_slice(const CheckpointConfig& cc,
                         std::uint64_t item_count) {
  if (!cc.sharded()) return {0, std::size_t(item_count)};
  auto slices = shard_ranges(std::size_t(item_count), cc.shard_count);
  if (cc.shard_index < slices.size()) return slices[cc.shard_index];
  return {std::size_t(item_count), std::size_t(item_count)};
}

/// Reject a checkpoint written by another study kind or under different
/// parameters; `what` names the run ("study" or "stream") in the message.
Status check_resume_identity(const io::StudyCheckpoint& ck, std::uint32_t kind,
                             std::uint64_t fingerprint, const char* what) {
  if (ck.kind != kind)
    return Status(StatusCode::kFailedPrecondition,
                  std::string("checkpoint was written by the ") +
                      io::checkpoint_kind_name(ck.kind) +
                      " study and cannot resume the " +
                      io::checkpoint_kind_name(kind) + " study");
  if (ck.config_fingerprint != fingerprint)
    return Status(StatusCode::kFailedPrecondition,
                  std::string("checkpoint config fingerprint does not match "
                              "this run; resume requires the exact original ") +
                      what + " parameters");
  return Status::Ok();
}

Status plan_shards(const CheckpointConfig& cc, std::uint32_t kind,
                   std::uint64_t fingerprint, std::uint64_t item_count,
                   unsigned threads, ShardPlan& plan) {
  if (cc.sharded() && cc.shard_index >= cc.shard_count)
    return Status(StatusCode::kInvalidArgument,
                  "shard index " + std::to_string(cc.shard_index) +
                      " is out of range for " +
                      std::to_string(cc.shard_count) + " shards");
  const ShardRange slice = process_slice(cc, item_count);
  if (!cc.resume) {
    plan.ranges = shard_ranges(slice.end - slice.begin, threads);
    for (auto& r : plan.ranges) {
      r.begin += slice.begin;
      r.end += slice.begin;
    }
    plan.next.clear();
    for (const auto& r : plan.ranges) plan.next.push_back(r.begin);
    return Status::Ok();
  }
  const io::StudyCheckpoint& ck = *cc.resume;
  Status same = check_resume_identity(ck, kind, fingerprint, "study");
  if (!same.ok()) return same;
  if (ck.item_count != item_count)
    return Status(StatusCode::kFailedPrecondition,
                  "checkpoint covers " + std::to_string(ck.item_count) +
                      " work items but this run has " +
                      std::to_string(item_count) +
                      "; the dataset changed since the checkpoint");
  plan.ranges.clear();
  plan.next.clear();
  for (const auto& shard : ck.shards) {
    if (shard.begin > shard.end || shard.next < shard.begin ||
        shard.next > shard.end || shard.end > item_count)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard range [" +
                        std::to_string(shard.begin) + ", " +
                        std::to_string(shard.end) + ") next " +
                        std::to_string(shard.next) + " is not plausible");
    plan.ranges.push_back(
        {std::size_t(shard.begin), std::size_t(shard.end)});
    plan.next.push_back(std::size_t(shard.next));
  }
  // The restored ranges must tile this process's slice exactly — no gaps,
  // no overlap — or the ordered reduction would silently drop or repeat
  // items. Catches both corrupt shard tables and a checkpoint resumed
  // under different --shard parameters.
  std::vector<ShardRange> sorted = plan.ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const ShardRange& a, const ShardRange& b) {
              return a.begin < b.begin;
            });
  std::size_t cursor = slice.begin;
  for (const auto& r : sorted) {
    if (r.begin == r.end) continue;  // empty shards carry no items
    if (r.begin != cursor)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard ranges do not tile items [" +
                        std::to_string(slice.begin) + ", " +
                        std::to_string(slice.end) + ") (gap or overlap at " +
                        std::to_string(r.begin) + ")");
    cursor = r.end;
  }
  if (cursor != slice.end)
    return Status(StatusCode::kDataLoss,
                  "checkpoint is corrupt: shard ranges cover items up to " +
                      std::to_string(cursor) + " of [" +
                      std::to_string(slice.begin) + ", " +
                      std::to_string(slice.end) + ")");
  return Status::Ok();
}

template <typename Shard>
Status restore_shards(const CheckpointConfig& cc, std::vector<Shard>& shards,
                      obs::MetricsSink& sup, obs::MetricsRegistry* registry) {
  if (!cc.resume) return Status::Ok();
  const io::StudyCheckpoint& ck = *cc.resume;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    io::ckpt::Reader r(ck.shards[s].blob);
    if (!io::ckpt::load(r, shards[s]) || r.remaining() != 0)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard " + std::to_string(s) +
                        " state failed to parse");
  }
  if (registry && !ck.registry_blob.empty()) {
    obs::MetricsSink snapshot;
    io::ckpt::Reader r(ck.registry_blob);
    if (!io::ckpt::load(r, snapshot) || r.remaining() != 0)
      return Status(
          StatusCode::kDataLoss,
          "checkpoint is corrupt: registry snapshot failed to parse");
    registry->merge(std::move(snapshot));
  }
  if (!ck.supervisor_blob.empty()) {
    io::ckpt::Reader r(ck.supervisor_blob);
    if (!io::ckpt::load(r, sup) || r.remaining() != 0)
      return Status(
          StatusCode::kDataLoss,
          "checkpoint is corrupt: supervisor state failed to parse");
  }
  sup.counter("checkpoint.resumes").add(1);
  return Status::Ok();
}

// --- the supervised round loop -------------------------------------------

/// One contiguous piece of a round: items [from, to) of plan range `range`,
/// with their summed cost estimate.
struct Chunk {
  std::size_t range = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t cost = 0;
};

/// Cut every unfinished range's segment for this round — [next, next +
/// round_items) clipped to the range, or the whole rest when round_items is
/// 0 — into contiguous chunks, listed in index order. With one thread each
/// segment is one chunk. Otherwise a chunk closes once its cost reaches
/// 1/(kChunksPerThread * threads) of the round's total, and an item costing
/// that much on its own gets a chunk to itself.
template <typename Source>
std::vector<Chunk> cut_round(const ShardPlan& plan, std::uint64_t round_items,
                             unsigned threads, const Source& source) {
  std::vector<Chunk> segments;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < plan.ranges.size(); ++s) {
    const std::size_t from = plan.next[s], end = plan.ranges[s].end;
    if (from == end) continue;
    const std::size_t to =
        round_items && round_items < end - from ? from + round_items : end;
    segments.push_back({s, from, to, 0});
    if (threads > 1)
      for (std::size_t i = from; i < to; ++i) total += source.cost(i);
  }
  if (threads == 1) return segments;
  const std::uint64_t share =
      std::max<std::uint64_t>(1, total / (kChunksPerThread * threads));
  std::vector<Chunk> chunks;
  for (const Chunk& seg : segments) {
    Chunk c{seg.range, seg.from, seg.from, 0};
    for (std::size_t i = seg.from; i < seg.to; ++i) {
      const std::uint64_t w = source.cost(i);
      if (w >= share && c.to > c.from) {
        chunks.push_back(c);
        c = {seg.range, i, i, 0};
      }
      c.to = i + 1;
      c.cost += w;
      if (c.cost >= share) {
        chunks.push_back(c);
        c = {seg.range, i + 1, i + 1, 0};
      }
    }
    if (c.to > c.from) chunks.push_back(c);
  }
  return chunks;
}

/// Run every range of `plan` to completion in rounds. Unsupervised (default
/// CheckpointConfig) there is one round covering each range's whole rest.
/// Supervised, each round advances every unfinished range by at most
/// `every_items` (or a small default) items, the shutdown token is polled
/// between rounds, and a checkpoint is written after each round while work
/// remains. An interrupt writes a final checkpoint and returns kCancelled.
///
/// A round is cut into chunks (cut_round), each analyzed into a fresh shard
/// from `make_shard`; the pool claims them in descending cost, ties by
/// index. After the round the chunks fold into their ranges' `shards`
/// strictly in index order. Every merge is an exact sum or an in-order
/// append, so the shards, the round count and every checkpoint are the same
/// for any thread count and schedule. With metrics on, each range records
/// one `<study>.shard_wall` sample per round (its chunks' summed time) and
/// `lane_ns[l]` accumulates pool lane l's busy time.
template <typename Source, typename MakeShard, typename Shard>
Status drive_shards(ShardExecutor& exec, const CheckpointConfig& cc,
                    std::uint32_t kind, std::uint64_t fingerprint,
                    const Source& source, const MakeShard& make_shard,
                    ShardPlan& plan, std::vector<Shard>& shards,
                    obs::MetricsRegistry* registry, obs::MetricsSink& sup,
                    std::vector<std::uint64_t>& lane_ns) {
  if (cc.every_items > 0 && cc.path.empty())
    return Status(StatusCode::kInvalidArgument,
                  "periodic checkpoints require a checkpoint path");
  if (cc.sharded() && cc.path.empty())
    return Status(StatusCode::kInvalidArgument,
                  "sharded runs require a checkpoint path (the completed "
                  "checkpoint is the shard's output)");
  const std::uint64_t round_items =
      !cc.active() ? 0 : cc.every_items ? cc.every_items : kDefaultRoundItems;
  const std::uint64_t item_count = source.size();
  const std::string wall = std::string(Shard::kName) + ".shard_wall";

  auto all_done = [&] {
    for (std::size_t s = 0; s < plan.ranges.size(); ++s)
      if (plan.next[s] < plan.ranges[s].end) return false;
    return true;
  };

  // Snapshot the full mid-run state and write it durably. The registry
  // snapshot is taken here — before any partial shard sink is merged into
  // it — so a resumed process restoring it never double-counts.
  auto snapshot = [&]() -> Status {
    obs::PhaseTimer timer(&sup.phase("checkpoint.write"));
    io::StudyCheckpoint ck;
    ck.kind = kind;
    ck.config_fingerprint = fingerprint;
    ck.item_count = item_count;
    ck.shards.reserve(plan.ranges.size());
    for (std::size_t s = 0; s < plan.ranges.size(); ++s) {
      io::ckpt::Writer w;
      io::ckpt::save(w, shards[s]);
      ck.shards.push_back({plan.ranges[s].begin, plan.ranges[s].end,
                           plan.next[s], w.take()});
    }
    if (registry) {
      io::ckpt::Writer w;
      io::ckpt::save(w, registry->snapshot());
      ck.registry_blob = w.take();
    }
    {
      io::ckpt::Writer w;
      io::ckpt::save(w, sup);
      ck.supervisor_blob = w.take();
    }
    Status st = io::write_checkpoint(cc.path, ck);
    if (st.ok())
      sup.counter("checkpoint.writes").add(1);
    else
      sup.counter("checkpoint.write_failures").add(1);
    return st;
  };

  for (;;) {
    const std::vector<Chunk> chunks =
        cut_round(plan, round_items, exec.thread_count(), source);
    std::vector<std::size_t> order(chunks.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return chunks[a].cost > chunks[b].cost;
                     });
    std::vector<Shard> parts;
    parts.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c)
      parts.push_back(make_shard());
    std::vector<std::uint64_t> part_ns(chunks.size(), 0);
    Status ran = exec.try_dispatch(
        chunks.size(), [&](unsigned lane, std::size_t k) {
          const Chunk& chunk = chunks[order[k]];
          Shard& part = parts[order[k]];
          if (!registry) {
            part.template process<false>(source, chunk.from, chunk.to);
          } else {
            const std::uint64_t start = obs::now_ns();
            part.template process<true>(source, chunk.from, chunk.to);
            part_ns[order[k]] = obs::now_ns() - start;
            lane_ns[lane] += part_ns[order[k]];
          }
          part.release_scratch();
        });
    // Fold even after a failed task, so its partial metrics still reach
    // the registry (analysis_pass); no checkpoint is written after one.
    std::vector<std::uint64_t> range_ns(plan.ranges.size(), 0);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      shards[chunks[c].range].merge(std::move(parts[c]));
      plan.next[chunks[c].range] = chunks[c].to;
      range_ns[chunks[c].range] += part_ns[c];
    }
    if (!ran.ok()) return ran;
    if (registry)
      for (std::size_t s = 0; s < shards.size(); ++s)
        shards[s].metrics.phase(wall).record(range_ns[s]);
    if (cc.active()) sup.counter("checkpoint.rounds").add(1);
    if (all_done()) {
      // Shard mode: the completed checkpoint IS the output — the merge
      // step combines these per-process files and resumes from the
      // result, so the final write must happen even unsupervised.
      if (cc.sharded()) {
        Status wrote = snapshot();
        if (!wrote.ok()) return wrote;
      }
      return Status::Ok();
    }
    if (cc.token && cc.token->requested()) {
      sup.counter("checkpoint.interrupted").add(1);
      std::string note = "interrupted by shutdown request after " +
                         std::to_string([&] {
                           std::uint64_t done = 0;
                           for (std::size_t s = 0; s < plan.ranges.size(); ++s)
                             done += plan.next[s] - plan.ranges[s].begin;
                           return done;
                         }()) +
                         " of " + std::to_string(item_count) + " items";
      if (!cc.path.empty()) {
        Status wrote = snapshot();
        if (!wrote.ok()) return wrote;
        note += "; checkpoint written to " + cc.path;
      }
      return Status(StatusCode::kCancelled, note);
    }
    if (cc.every_items > 0) {
      Status wrote = snapshot();
      if (!wrote.ok()) return wrote;
    }
  }
}

// --- the analysis pass ---------------------------------------------------
//
// Every study run is this one sequence: plan (or restore) the shard
// partition, drive the shards through `exec`, reduce in index order,
// finalize, extract the results into `study` via the analyzers'
// non-consuming snapshot()s, and publish metrics. The generator and file
// entrypoints and every stream re-finalization run through here; they
// differ only in the item source and the shard type. `metrics` is passed
// explicitly (not read from the study config) so the streaming driver can
// run intermediate passes unrecorded and record only the final one.

template <typename Source, typename MakeShard>
Status analysis_pass(ShardExecutor& exec, const CheckpointConfig& cc,
                     std::uint32_t kind, std::uint64_t fingerprint,
                     obs::MetricsRegistry* metrics, const Source& source,
                     const MakeShard& make_shard,
                     typename std::invoke_result_t<MakeShard>::Study& study) {
  using Shard = std::invoke_result_t<MakeShard>;
  const std::string name = Shard::kName;
  ShardPlan plan;
  Status planned = plan_shards(cc, kind, fingerprint, source.size(),
                               exec.thread_count(), plan);
  if (!planned.ok()) return planned;

  std::vector<Shard> shards;
  shards.reserve(plan.ranges.size());
  for (std::size_t s = 0; s < plan.ranges.size(); ++s)
    shards.push_back(make_shard());
  obs::MetricsSink sup;
  Status restored = restore_shards(cc, shards, sup, metrics);
  if (!restored.ok()) return restored;

  std::vector<std::uint64_t> lane_ns(exec.thread_count(), 0);
  Status drove = drive_shards(exec, cc, kind, fingerprint, source, make_shard,
                              plan, shards, metrics, sup, lane_ns);
  if (!drove.ok()) {
    // The checkpoint (if any) is already durable; fold the partial shard
    // sinks into the registry so an interrupted tool run can still report.
    if (metrics) {
      obs::MetricsSink partial;
      for (Shard& shard : shards) partial.merge(std::move(shard.metrics));
      if (source.ingest) partial.merge(std::move(*source.ingest));
      partial.merge(std::move(sup));
      metrics->merge(std::move(partial));
    }
    return drove;
  }

  // Ordered reduction: shard 0 absorbs the rest in index order, which keeps
  // every append-ordered vector in the exact order of the serial run.
  Shard& root = shards.front();
  const std::uint64_t t0 = metrics ? obs::now_ns() : 0;
  for (std::size_t s = 1; s < shards.size(); ++s)
    root.merge(std::move(shards[s]));
  const std::uint64_t t1 = metrics ? obs::now_ns() : 0;
  root.finalize();
  if (metrics) {
    root.metrics.phase(name + ".merge").record(t1 - t0);
    root.metrics.phase(name + ".finalize").record(obs::now_ns() - t1);
  }
  root.extract(study);

  if (metrics) {
    root.publish(study);
    source.publish(root.metrics);
    root.metrics.gauge(name + ".shards").set(double(plan.ranges.size()));
    root.metrics.gauge(name + ".shard_imbalance")
        .set(imbalance_ratio(lane_ns));
    if (source.ingest) root.metrics.merge(std::move(*source.ingest));
    root.metrics.merge(std::move(sup));
    metrics->merge(std::move(root.metrics));
  }
  return Status::Ok();
}

void init_atlas_study(const std::vector<simnet::IspProfile>& isps,
                      AtlasStudy& study) {
  simnet::announce_all(isps, study.rib);
  for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;
}

}  // namespace

Expected<AtlasStudy> run_atlas_study_supervised(
    const std::vector<simnet::IspProfile>& isps,
    const AtlasStudyConfig& config, const CheckpointConfig& checkpoint) {
  AtlasStudy study;
  init_atlas_study(isps, study);
  atlas::AtlasSimulator sim(isps, config.atlas);
  ShardExecutor exec(config.threads);
  Status ran = analysis_pass(
      exec, checkpoint, io::kCkptAtlasGen, atlas_gen_fingerprint(isps, config),
      config.metrics, AtlasGenerated{sim},
      [&] { return AtlasShard(study.rib, config.sanitize, config.changes); },
      study);
  if (!ran.ok()) return ran.with_context("atlas study");
  return study;
}

AtlasStudy run_atlas_study(const std::vector<simnet::IspProfile>& isps,
                           const AtlasStudyConfig& config) {
  auto study = run_atlas_study_supervised(isps, config, {});
  if (!study.ok()) throw std::runtime_error(study.status().to_string());
  return study.take();
}

Expected<CdnStudy> run_cdn_study_supervised(
    const std::vector<cdn::PopulationEntry>& population,
    const CdnStudyConfig& config, const CheckpointConfig& checkpoint) {
  cdn::CdnSimulator sim(population, config.cdn);
  CdnStudy study;
  for (const auto& entry : population)
    study.asn_names[entry.isp.asn] = entry.isp.name;
  const std::unordered_set<bgp::Asn> mobile = sim.mobile_asns();
  ShardExecutor exec(config.threads);
  Status ran = analysis_pass(
      exec, checkpoint, io::kCkptCdnGen,
      cdn_gen_fingerprint(population, config), config.metrics,
      CdnGenerated{sim}, [&] { return CdnShard(config.assoc, mobile); },
      study);
  if (!ran.ok()) return ran.with_context("cdn study");
  return study;
}

CdnStudy run_cdn_study(const std::vector<cdn::PopulationEntry>& population,
                       const CdnStudyConfig& config) {
  auto study = run_cdn_study_supervised(population, config, {});
  if (!study.ok()) throw std::runtime_error(study.status().to_string());
  return study.take();
}

// ------------------------------------------------- file-driven entrypoints

namespace {

// --- file policies --------------------------------------------------------
//
// The per-study glue of file-driven runs, one-shot and streamed alike: how
// to load a batch file into the accumulated dataset (CSV vs columnar is
// dispatched by extension, so `.col` batches ride alongside `.csv`; a `.col`
// batch and a journal segment decode on the pass's executor, which is idle
// while a batch loads), how a stream journals a loaded batch (one DYNCOL1
// segment) and how to run one analysis pass over the accumulated dataset.

struct AtlasFilePolicy {
  const std::vector<simnet::IspProfile>& isps;
  const AtlasFileStudyConfig& config;
  ShardExecutor& exec;

  using Dataset = std::vector<atlas::ProbeSeries>;
  using Accumulator = io::EchoAccumulator;
  using Study = AtlasStudy;
  static constexpr std::uint32_t kFileKind = io::kCkptAtlasFile;
  static constexpr std::uint32_t kStreamKind = io::kCkptAtlasStream;
  static constexpr const char* kIngestPhase = "atlas.ingest";
  static constexpr const char* kStudyLabel = "atlas study";
  static constexpr const char* kStreamLabel = "atlas stream";

  std::uint64_t fingerprint(const std::vector<std::string>* paths) const {
    return atlas_file_fingerprint(paths, isps, config);
  }
  obs::MetricsRegistry* metrics() const { return config.metrics; }
  const io::ReaderOptions& reader() const { return config.reader; }

  Expected<Dataset> load(const std::string& path,
                         const io::ReaderOptions& options,
                         io::IngestStats* stats) const {
    return io::load_echo_file(path, options, stats, &exec);
  }
  io::EncodedBatch encode_segment(const Dataset& batch) const {
    return io::encode_echo_columnar(batch, &exec);
  }
  Expected<Dataset> decode_segment(std::string_view bytes,
                                   const io::ReaderOptions& options) const {
    return io::decode_echo_columnar(bytes, options, nullptr, &exec);
  }

  void init_study(Study& study) const { init_atlas_study(isps, study); }

  Status run_pass(Dataset& dataset, obs::MetricsRegistry* registry,
                  const CheckpointConfig& cc, std::uint32_t kind,
                  std::uint64_t fp, obs::MetricsSink* ingest_sink,
                  Study& study) const {
    return analysis_pass(
        exec, cc, kind, fp, registry,
        Loaded<atlas::ProbeSeries>{dataset, ingest_sink},
        [&] { return AtlasShard(study.rib, config.sanitize, config.changes); },
        study);
  }
};

struct CdnFilePolicy {
  const CdnFileStudyConfig& config;
  ShardExecutor& exec;

  using Dataset = std::vector<cdn::AssociationLog>;
  using Accumulator = io::AssocAccumulator;
  using Study = CdnStudy;
  static constexpr std::uint32_t kFileKind = io::kCkptCdnFile;
  static constexpr std::uint32_t kStreamKind = io::kCkptCdnStream;
  static constexpr const char* kIngestPhase = "cdn.ingest";
  static constexpr const char* kStudyLabel = "cdn study";
  static constexpr const char* kStreamLabel = "cdn stream";

  std::uint64_t fingerprint(const std::vector<std::string>* paths) const {
    return cdn_file_fingerprint(paths, config);
  }
  obs::MetricsRegistry* metrics() const { return config.metrics; }
  const io::ReaderOptions& reader() const { return config.reader; }

  Expected<Dataset> load(const std::string& path,
                         const io::ReaderOptions& options,
                         io::IngestStats* stats) const {
    return io::load_assoc_file(path, options, stats, &exec);
  }
  io::EncodedBatch encode_segment(const Dataset& batch) const {
    return io::encode_assoc_columnar(batch, &exec);
  }
  Expected<Dataset> decode_segment(std::string_view bytes,
                                   const io::ReaderOptions& options) const {
    return io::decode_assoc_columnar(bytes, options, nullptr, &exec);
  }

  void init_study(Study& study) const { study.asn_names = config.asn_names; }

  Status run_pass(Dataset& dataset, obs::MetricsRegistry* registry,
                  const CheckpointConfig& cc, std::uint32_t kind,
                  std::uint64_t fp, obs::MetricsSink* ingest_sink,
                  Study& study) const {
    // The CSV schema carries no access-type or registry attribution; graft
    // the caller's ground truth onto the loaded logs. Idempotent — the
    // streaming driver re-grafts on every re-finalization pass.
    for (auto& log : dataset) {
      log.mobile = config.mobile_asns.count(log.asn) > 0;
      auto reg = config.registries.find(log.asn);
      log.registry =
          reg == config.registries.end() ? bgp::Registry::kRipe : reg->second;
    }
    return analysis_pass(
        exec, cc, kind, fp, registry,
        Loaded<cdn::AssociationLog>{dataset, ingest_sink},
        [&] { return CdnShard(config.assoc, config.mobile_asns); }, study);
  }
};

/// A one-shot file study: load every file in order (later files merge into
/// earlier items), then run one analysis pass. Ingest metrics land in a
/// local sink folded into the registry with the shard sinks. It is never
/// checkpointed: a resumed run re-ingests the same files and reproduces
/// identical ingest counters.
template <typename Policy>
Expected<typename Policy::Study> run_file_study(
    const Policy& policy, const std::vector<std::string>& paths,
    io::IngestStats* ingest, const CheckpointConfig& checkpoint) {
  obs::MetricsRegistry* metrics = policy.metrics();
  obs::MetricsSink ingest_sink;
  io::ReaderOptions ropts = policy.reader();
  if (metrics && !ropts.metrics) ropts.metrics = &ingest_sink;

  // The study shell (the Atlas RIB) is built before the dataset is loaded,
  // so the trie the sanitizer walks per record is not scattered through a
  // heap fragmented by ingest.
  typename Policy::Study study;
  policy.init_study(study);
  typename Policy::Accumulator dataset;
  const std::uint64_t load_start = obs::now_ns();
  for (const auto& path : paths) {
    auto part = policy.load(path, ropts, ingest);
    if (!part.ok()) {
      Status st = part.status();
      return st.with_context(path).with_context(Policy::kStudyLabel);
    }
    dataset.merge(part.take());
  }
  const std::uint64_t load_ns = obs::now_ns() - load_start;
  if (ingest) ingest->load_wall_ns += load_ns;
  if (metrics) ingest_sink.phase(Policy::kIngestPhase).record(load_ns);

  Status ran = policy.run_pass(dataset.items(), metrics, checkpoint,
                               Policy::kFileKind, policy.fingerprint(&paths),
                               &ingest_sink, study);
  if (!ran.ok()) return ran.with_context(Policy::kStudyLabel);
  return study;
}

}  // namespace

Expected<AtlasStudy> run_atlas_study_from_files(
    const std::vector<std::string>& paths,
    const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, io::IngestStats* ingest,
    const CheckpointConfig& checkpoint) {
  ShardExecutor exec(config.threads);
  return run_file_study(AtlasFilePolicy{isps, config, exec}, paths, ingest,
                        checkpoint);
}

Expected<CdnStudy> run_cdn_study_from_files(
    const std::vector<std::string>& paths, const CdnFileStudyConfig& config,
    io::IngestStats* ingest, const CheckpointConfig& checkpoint) {
  ShardExecutor exec(config.threads);
  return run_file_study(CdnFilePolicy{config, exec}, paths, ingest,
                        checkpoint);
}

// --------------------------------------------------- streaming entrypoints

bool natural_name_less(std::string_view a, std::string_view b) {
  auto digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      std::size_t ia = i, jb = j;
      while (ia < a.size() && digit(a[ia])) ++ia;
      while (jb < b.size() && digit(b[jb])) ++jb;
      std::size_t za = i, zb = j;
      while (za < ia && a[za] == '0') ++za;  // strip leading zeros
      while (zb < jb && b[zb] == '0') ++zb;
      std::string_view va = a.substr(za, ia - za);
      std::string_view vb = b.substr(zb, jb - zb);
      if (va.size() != vb.size()) return va.size() < vb.size();
      if (va != vb) return va < vb;
      if (ia - i != jb - j) return ia - i < jb - j;
      i = ia;
      j = jb;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    ++i;
    ++j;
  }
  return a.size() - i < b.size() - j;
}

namespace {

// --- watch-directory scanning ---------------------------------------------

/// Unconsumed batch files in `watch_dir`, sorted by natural name order —
/// the stream's consumption order. Dotfiles, in-flight `.tmp` writes and
/// the stop sentinel are skipped. The byte-identity guarantee assumes
/// producers number batches monotonically (tools/stream_feed.py does);
/// numeric ordering means a feed outgrowing its zero-pad width keeps
/// consuming in production order instead of silently replaying
/// `batch-1000` before `batch-999`. Late out-of-order arrivals are still
/// consumed, just merged in arrival order.
std::vector<std::filesystem::path> scan_batches(
    const std::string& watch_dir, const std::string& sentinel,
    const std::set<std::string>& consumed) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(watch_dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.empty() || name[0] == '.') continue;
    if (name == sentinel) continue;
    if (name.ends_with(".tmp")) continue;
    if (consumed.count(name)) continue;
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const std::filesystem::path& a, const std::filesystem::path& b) {
              return natural_name_less(a.filename().string(),
                                       b.filename().string());
            });
  return out;
}

/// Seconds between a batch file's mtime and now — the stream.lag_seconds
/// gauge: how far ingestion trails production.
double batch_lag_seconds(const std::filesystem::path& path) {
  std::error_code ec;
  auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return 0.0;
  auto delta = std::chrono::duration_cast<std::chrono::duration<double>>(
      std::filesystem::file_time_type::clock::now() - mtime);
  return delta.count() > 0 ? delta.count() : 0.0;
}

/// Reader options for replaying journal segments. A segment holds records
/// the stream already accepted, so nothing is capped and any reject fails
/// the decode: it can only mean damage.
io::ReaderOptions journal_reader_options() {
  io::ReaderOptions options;
  options.max_hour = std::numeric_limits<std::uint64_t>::max();
  options.max_day = std::numeric_limits<std::uint32_t>::max();
  options.max_reject_fraction = 0;
  options.max_consecutive_rejects = 0;
  return options;
}

// --- the stream loop ------------------------------------------------------

template <typename Policy, typename SnapshotFn>
Expected<typename Policy::Study> follow_stream(const Policy& policy,
                                               const std::string& watch_dir,
                                               const StreamConfig& stream,
                                               const SnapshotFn& on_snapshot,
                                               io::IngestStats* ingest,
                                               StreamStats* stats_out) {
  namespace fs = std::filesystem;
  using Study = typename Policy::Study;

  std::error_code ec;
  if (!fs::is_directory(watch_dir, ec))
    return Status(StatusCode::kNotFound,
                  std::string(Policy::kStreamLabel) +
                      ": watch directory does not exist: " + watch_dir);

  const std::uint64_t fingerprint = policy.fingerprint(nullptr);
  obs::MetricsRegistry* metrics = policy.metrics();

  // All stream-side accounting (`ingest.*`, `stream.*`, `checkpoint.*`)
  // accumulates in one sink persisted inside every checkpoint: unlike the
  // one-shot file studies, a resumed stream does not re-ingest consumed
  // batches, so the counters must travel with the high-water mark.
  obs::MetricsSink sink;
  // The wall-clock entries, the `checkpoint.write` phase and the
  // `stream.lag_seconds` gauge, accumulate apart and are never saved, so
  // two identical streams write identical manifests. The final pass folds
  // them into the registry with the stream sink; after a resume they cover
  // this process only.
  obs::MetricsSink timing;
  typename Policy::Accumulator dataset;
  std::vector<std::string> consumed;
  // The stream checkpoint's manifest; its journal table grows by one
  // segment per committed batch.
  io::StudyCheckpoint manifest;
  manifest.kind = Policy::kStreamKind;
  manifest.config_fingerprint = fingerprint;

  if (stream.resume) {
    const io::StudyCheckpoint& ck = *stream.resume;
    Status same =
        check_resume_identity(ck, Policy::kStreamKind, fingerprint, "stream");
    if (!same.ok()) return same;
    if (ck.item_count != ck.consumed.size() || ck.shards.size() != 1)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: stream batch accounting is "
                    "inconsistent");
    // Each journal segment is one consumed batch as the readers returned
    // it, so merging them in order rebuilds exactly the dataset the live
    // stream held. Re-reading the batch files instead would depend on them
    // still being there unchanged.
    Status replayed = io::read_journal(
        ck, [&](std::size_t i, std::string_view bytes) -> Status {
          auto part = policy.decode_segment(bytes, journal_reader_options());
          if (!part.ok())
            return Status(StatusCode::kDataLoss,
                          "checkpoint is corrupt: journal segment " +
                              std::to_string(i) + " (" + ck.consumed[i] +
                              ") does not decode: " +
                              part.status().message());
          dataset.merge(part.take());
          return Status::Ok();
        });
    if (!replayed.ok()) return replayed;
    if (!ck.supervisor_blob.empty()) {
      io::ckpt::Reader sr(ck.supervisor_blob);
      if (!io::ckpt::load(sr, sink) || sr.remaining() != 0)
        return Status(StatusCode::kDataLoss,
                      "checkpoint is corrupt: stream accounting failed to "
                      "parse");
      // Manifests of older builds saved them.
      sink.erase("checkpoint.write");
      sink.erase("stream.lag_seconds");
    }
    consumed = ck.consumed;
    manifest.journal = ck.journal;
    sink.counter("checkpoint.resumes").add(1);
  }

  if (!stream.checkpoint_path.empty()) {
    Status ready = io::init_journal(stream.checkpoint_path, stream.resume);
    if (!ready.ok()) return ready.with_context(Policy::kStreamLabel);
  }

  std::set<std::string> consumed_set(consumed.begin(), consumed.end());
  std::uint64_t batches_since_refinalize = 0;
  auto last_refinalize = std::chrono::steady_clock::now();

  io::ReaderOptions base_ropts = policy.reader();
  if (metrics && !base_ropts.metrics) base_ropts.metrics = &sink;

  // The caller-facing StreamStats are the sink's `stream.*` counters, so a
  // resumed stream reports the batches it restored. Reading a counter never
  // creates it: an absent one is zero.
  auto counted = [&](std::string_view name) -> std::uint64_t {
    auto it = sink.counters().find(name);
    return it == sink.counters().end() ? 0 : it->second.value;
  };
  auto stats = [&] {
    return StreamStats{counted("stream.batches"), counted("stream.records"),
                       counted("stream.refinalize")};
  };
  auto publish_stats = [&] {
    if (stats_out) *stats_out = stats();
  };

  // --- transient-IO retry policy ---
  // `attempt` runs up to `io_retry_attempts` times with exponential backoff
  // between tries; each retry counts in `acct`'s `io.retries`, running out
  // in its `io.giveups`, and the last failure is returned. The jitter comes
  // from splitmix64 over the configured seed and the caller's salt, never
  // from a clock, so a replayed chaos run makes the identical retry/sleep
  // decisions.
  const std::uint64_t max_attempts =
      stream.io_retry_attempts > 0 ? stream.io_retry_attempts : 1;
  const std::uint64_t base_ms =
      stream.io_retry_base_ms > 0 ? stream.io_retry_base_ms : 1;
  auto with_retries = [&](obs::MetricsSink& acct, std::uint64_t salt,
                          const auto& attempt) -> Status {
    Status last = attempt();
    for (std::uint64_t n = 0; !last.ok() && n + 1 < max_attempts; ++n) {
      const std::uint64_t jitter =
          splitmix64(stream.io_retry_seed ^ salt ^ n) % (base_ms + 1);
      acct.counter("io.retries").add(1);
      const std::uint64_t shift = n < 10 ? n : 10;
      interruptible_sleep_ms((base_ms << shift) + jitter, stream.token);
      last = attempt();
    }
    if (!last.ok()) acct.counter("io.giveups").add(1);
    return last;
  };

  // A giveup is resumable when a durable batch high-water mark exists on
  // disk: the atomic checkpoint writer never tears the previous snapshot,
  // so the run can exit kCancelled (exit 3, `--resume-from`) instead of
  // failing outright and discarding the accumulated stream state.
  auto resumable_or = [&](Status failed) -> Status {
    publish_stats();
    if (!stream.checkpoint_path.empty() &&
        sink.counter("checkpoint.writes").value > 0)
      return Status(StatusCode::kCancelled,
                    std::string(Policy::kStreamLabel) +
                        ": giving up after repeated IO failures; the last "
                        "durable checkpoint at " +
                        stream.checkpoint_path + " is intact (" +
                        failed.message() + ")");
    return failed;
  };

  // A commit of the batch high-water mark, prepared on the driver thread:
  // the segment of the batch consumed since the last commit (none for an
  // interrupt or memory-pressure commit), encoded on the executor, and the
  // manifest with the consumed-batch list, the journal table and the
  // stream accounting sink. A stream commits after every batch, so a
  // killed stream replays only unconsumed batches, and each commit costs
  // one batch, not the dataset so far.
  struct Commit {
    io::EncodedBatch segment;
    bool keep_previous = true;
    std::uint64_t prepare_ns = 0;
  };
  auto prepare_commit = [&](const typename Policy::Dataset* batch) {
    const std::uint64_t start = obs::now_ns();
    Commit commit;
    if (batch) commit.segment = policy.encode_segment(*batch);
    manifest.item_count = consumed.size();
    manifest.shards = {{0, consumed.size(), consumed.size(), {}}};
    manifest.consumed = consumed;
    io::ckpt::Writer sw;
    io::ckpt::save(sw, sink);
    manifest.supervisor_blob = sw.take();
    // Disk soft pressure: drop manifest retention to keep-last-1. The
    // manifest is a few KB and both generations share the journal, so this
    // gives back little; it is still the one copy that can go.
    if (stream.governor && stream.governor->disk_soft()) {
      commit.keep_previous = false;
      stream.governor->count("retention_drops");
    }
    commit.prepare_ns = obs::now_ns() - start;
    return commit;
  };
  // Write a prepared commit durably, with retries: the segment into the
  // journal, then the manifest. It touches only `manifest` and `acct`, so
  // it can run on a writer thread while the driver goes on.
  auto write_commit = [&](const Commit& commit,
                          obs::MetricsSink& acct) -> Status {
    return with_retries(acct, /*salt=*/0x636b7074 /*'ckpt'*/, [&] {
      Status wrote = io::commit_stream_checkpoint(
          stream.checkpoint_path, manifest, commit.segment.bytes,
          commit.segment.crc, commit.keep_previous);
      acct.counter(wrote.ok() ? "checkpoint.writes"
                              : "checkpoint.write_failures")
          .add(1);
      return wrote;
    });
  };
  // A commit with no segment, on the driver thread.
  auto write_stream_checkpoint = [&]() -> Status {
    if (stream.checkpoint_path.empty()) return Status::Ok();
    const std::uint64_t start = obs::now_ns();
    Status wrote = write_commit(prepare_commit(nullptr), sink);
    timing.phase("checkpoint.write").record(obs::now_ns() - start);
    return wrote;
  };

  // One re-finalization: a full sharded analysis pass over the accumulated
  // dataset through the persistent executor. Intermediate passes run with a
  // null registry (no metric records, no throwaway totals); only the final
  // pass records analysis metrics and folds the stream sink in, so the
  // registry ends up identical to a one-shot run over the same batches.
  // The caller counts the pass in `stream.refinalize`.
  auto refinalize = [&](bool final_pass) -> Expected<Study> {
    Study study;
    policy.init_study(study);
    CheckpointConfig cc;
    cc.token = stream.token;  // poll between rounds; the batch high-water
                              // mark checkpoint is already durable, so no
                              // mid-pass snapshot is needed
    Status ran = policy.run_pass(dataset.items(),
                                 final_pass ? metrics : nullptr, cc,
                                 Policy::kStreamKind, fingerprint,
                                 final_pass ? &sink : nullptr, study);
    if (!ran.ok()) return ran;
    return study;
  };

  // Count an intermediate re-finalization and hand its study to the
  // caller's callback.
  auto publish_snapshot = [&](Expected<Study> snap) -> Status {
    sink.counter("stream.refinalize").add(1);
    if (!snap.ok()) {
      publish_stats();
      Status st = snap.status();
      return st.with_context(Policy::kStreamLabel);
    }
    on_snapshot(snap.value(), stats());
    batches_since_refinalize = 0;
    last_refinalize = std::chrono::steady_clock::now();
    publish_stats();
    return Status::Ok();
  };

  auto timer_due = [&] {
    if (stream.refinalize_seconds <= 0) return false;
    auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - last_refinalize);
    return elapsed.count() >= stream.refinalize_seconds;
  };

  // Intermediate re-finalizations are a *publication* convenience — the
  // final pass always runs — which makes them the stream's pressure
  // release valve: deferring one under memory pressure (the pass builds a
  // full per-shard analyzer set over the accumulated dataset) or skipping
  // one while ingestion lags cannot change the final outputs. Both are
  // counted, never silent: hold() says why a due pass may not run, and
  // count_hold() counts that and returns whether it may.
  double last_lag = 0.0;
  bool mem_pressure_prev = false;
  enum class Hold { kNone, kMemory, kLag };
  auto hold = [&] {
    if (stream.governor && stream.governor->memory_pressure())
      return Hold::kMemory;
    if (stream.max_lag_seconds > 0 && last_lag > stream.max_lag_seconds)
      return Hold::kLag;
    return Hold::kNone;
  };
  auto count_hold = [&](Hold why) {
    if (why == Hold::kMemory) stream.governor->count("refinalize_deferred");
    if (why == Hold::kLag) sink.counter("stream.refinalize_skipped").add(1);
    return why == Hold::kNone;
  };

  for (;;) {
    if (stream.token && stream.token->requested()) {
      sink.counter("checkpoint.interrupted").add(1);
      std::string note = std::string(Policy::kStreamLabel) +
                         " interrupted by shutdown request after " +
                         std::to_string(consumed.size()) +
                         " consumed batches";
      if (!stream.checkpoint_path.empty()) {
        Status wrote = write_stream_checkpoint();
        if (!wrote.ok()) return resumable_or(wrote);
        note += "; checkpoint written to " + stream.checkpoint_path;
      }
      publish_stats();
      return Status(StatusCode::kCancelled, note);
    }

    if (auto fp = core::failpoint("stream.scan"); fp) {
      if (fp.is_error()) {
        // Transient directory-scan failure: nothing was consumed and
        // nothing merged, so treat it like an empty poll — count the retry,
        // back off, rescan. The shutdown token above keeps even a
        // persistently failing scan drainable.
        sink.counter("io.retries").add(1);
        interruptible_sleep_ms(stream.poll_ms, stream.token);
        continue;
      }
      core::failpoint_sleep(fp);
    }
    std::vector<fs::path> fresh =
        scan_batches(watch_dir, stream.stop_sentinel, consumed_set);
    const bool sentinel_present =
        !stream.stop_sentinel.empty() &&
        fs::exists(fs::path(watch_dir) / stream.stop_sentinel, ec);
    const bool reached_cap =
        stream.max_batches > 0 && consumed.size() >= stream.max_batches;

    // Bound the per-sweep backlog: a burst of batches still gets consumed,
    // just across several sweeps, keeping the work list (and the time
    // between token/governor polls at the sweep boundary) bounded.
    if (stream.max_backlog_batches > 0 &&
        fresh.size() > stream.max_backlog_batches)
      fresh.resize(stream.max_backlog_batches);
    sink.gauge("stream.backlog_batches").set(double(fresh.size()));
    if (stream.governor) {
      stream.governor->note_backlog(fresh.size());
      // Memory-pressure rising edge: force the high-water mark to disk
      // *now*, while the process is still healthy enough to write it — if
      // the kernel OOM-kills us anyway, the supervisor resumes from here.
      const bool mem = stream.governor->memory_pressure();
      if (mem && !mem_pressure_prev) {
        stream.governor->count("early_checkpoints");
        Status wrote = write_stream_checkpoint();
        if (!wrote.ok()) return resumable_or(wrote);
      }
      mem_pressure_prev = mem;
    }

    if (reached_cap || (fresh.empty() && sentinel_present)) {
      sink.counter("stream.refinalize").add(1);
      // The final pass folds the sink into the registry: report it first.
      publish_stats();
      sink.merge(std::move(timing));
      Expected<Study> final_study = refinalize(/*final_pass=*/true);
      if (!final_study.ok()) {
        Status st = final_study.status();
        return st.with_context(Policy::kStreamLabel);
      }
      return final_study;
    }

    if (fresh.empty()) {
      if (on_snapshot && batches_since_refinalize > 0 && timer_due() &&
          count_hold(hold())) {
        Status published = publish_snapshot(refinalize(/*final_pass=*/false));
        if (!published.ok()) return published;
        continue;
      }
      interruptible_sleep_ms(stream.poll_ms, stream.token);
      continue;
    }

    for (const fs::path& path : fresh) {
      if (stream.token && stream.token->requested()) break;
      if (stream.max_batches > 0 && consumed.size() >= stream.max_batches)
        break;

      // Disk hard pressure: pause ingest until space recovers. The
      // high-water mark on disk is intact and the token stays polled, so
      // a pause is interruptible and resume-safe at any point.
      if (stream.governor && stream.governor->disk_hard()) {
        stream.governor->count("ingest_pauses");
        while (stream.governor->disk_hard() &&
               !(stream.token && stream.token->requested()))
          interruptible_sleep_ms(stream.poll_ms, stream.token);
        if (stream.token && stream.token->requested()) break;
      }

      const double lag = batch_lag_seconds(path);
      last_lag = lag;
      // Load with bounded retries. Each attempt reopens the stream and
      // feeds attempt-local ingest stats and metrics; only a fully
      // successful read is kept and folded into the real accounting — so
      // a retried batch leaves the study-facing `ingest.*` counters
      // identical to a fault-free run.
      const std::uint64_t batch_salt =
          splitmix64(std::hash<std::string>{}(path.filename().string()));
      typename Policy::Dataset batch;
      Status loaded = with_retries(sink, batch_salt, [&]() -> Status {
        io::ReaderOptions ropts = base_ropts;
        ropts.source_label = path.string();
        // Disk soft pressure: shed quarantine copies of rejected lines —
        // diagnostics, not data; rejects stay counted in `ingest.*` and
        // the shed volume in `resource.quarantine_shed`.
        ropts.shed_quarantine =
            stream.governor && stream.governor->disk_soft();
        obs::MetricsSink attempt_sink;
        if (base_ropts.metrics) ropts.metrics = &attempt_sink;
        io::IngestStats attempt_ingest;
        auto part = policy.load(path.string(), ropts, &attempt_ingest);
        if (!part.ok()) return part.status();
        batch = part.take();
        if (ingest) ingest->merge(attempt_ingest);
        if (stream.governor)
          stream.governor->count("quarantine_shed",
                                 attempt_ingest.quarantine_shed);
        if (base_ropts.metrics)
          base_ropts.metrics->merge(std::move(attempt_sink));
        return Status::Ok();
      });
      if (!loaded.ok())
        return resumable_or(loaded.with_context(path.string()));

      std::uint64_t records = 0;
      for (const auto& item : batch) records += item.records.size();
      const std::string name = path.filename().string();
      consumed.push_back(name);
      consumed_set.insert(name);
      sink.counter("stream.batches").add(1);
      sink.counter("stream.records").add(records);
      timing.gauge("stream.lag_seconds").set(lag);
      ++batches_since_refinalize;

      // The batch's commit runs on a writer thread while the batch merges
      // and a due intermediate pass runs. Only after the commit is durable
      // is the pass counted and its snapshot published; when the commit
      // fails, the pass is dropped and the stream gives up as it would
      // have before merging the batch. The writer's accounting goes into
      // its own sink, folded in after the join, and `checkpoint.write`
      // records the commit's own time, not the wait for it.
      Commit commit;
      obs::MetricsSink writer_sink;
      std::uint64_t writer_ns = 0;
      std::future<Status> writer;
      if (!stream.checkpoint_path.empty()) {
        commit = prepare_commit(&batch);
        writer = std::async(std::launch::async, [&] {
          const std::uint64_t start = obs::now_ns();
          Status wrote = write_commit(commit, writer_sink);
          writer_ns = obs::now_ns() - start;
          return wrote;
        });
      }
      dataset.merge(std::move(batch));
      const bool due =
          on_snapshot &&
          ((stream.refinalize_every_batches > 0 &&
            batches_since_refinalize >= stream.refinalize_every_batches) ||
           timer_due());
      const Hold why = due ? hold() : Hold::kNone;
      std::optional<Expected<Study>> snap;
      if (due && why == Hold::kNone) snap = refinalize(/*final_pass=*/false);
      if (writer.valid()) {
        Status wrote = writer.get();
        sink.merge(std::move(writer_sink));
        timing.phase("checkpoint.write").record(commit.prepare_ns + writer_ns);
        if (!wrote.ok()) return resumable_or(wrote);
      }
      publish_stats();

      if (due && count_hold(why)) {
        Status published = publish_snapshot(std::move(*snap));
        if (!published.ok()) return published;
      }
    }
  }
}

}  // namespace

StreamDriver::StreamDriver(unsigned threads) : exec_(threads) {}

unsigned StreamDriver::thread_count() const { return exec_.thread_count(); }

Expected<AtlasStudy> StreamDriver::follow_atlas(
    const std::string& watch_dir, const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, const StreamConfig& stream,
    AtlasSnapshotFn on_snapshot, io::IngestStats* ingest, StreamStats* stats) {
  AtlasFilePolicy policy{isps, config, exec_};
  return follow_stream(policy, watch_dir, stream, on_snapshot, ingest, stats);
}

Expected<CdnStudy> StreamDriver::follow_cdn(const std::string& watch_dir,
                                            const CdnFileStudyConfig& config,
                                            const StreamConfig& stream,
                                            CdnSnapshotFn on_snapshot,
                                            io::IngestStats* ingest,
                                            StreamStats* stats) {
  CdnFilePolicy policy{config, exec_};
  return follow_stream(policy, watch_dir, stream, on_snapshot, ingest, stats);
}

}  // namespace dynamips::core
