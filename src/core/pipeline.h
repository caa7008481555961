// pipeline.h — end-to-end study runners.
//
// Convenience orchestration used by the benchmark harness, the examples and
// the integration tests: generate the synthetic dataset (or load it from
// files), sanitize it, and run every analyzer, returning one results object
// per study. Probes/logs are processed one at a time so memory stays flat
// regardless of scale, and the index space is cut into cost-ordered chunks
// run on a fixed thread pool (core/parallel.h): every analyzer is a
// mergeable sink, each chunk owns a private analyzer set, and chunks are
// reduced in index order, so results are byte-identical for every
// `threads` setting (`threads = 1` is the plain serial path).
//
// Every entrypoint below — generator, file-driven, and each re-finalization
// of a stream — runs the same `analysis_pass` in pipeline.cpp: plan or
// restore the shards, drive them in rounds, reduce, finalize, snapshot,
// publish metrics. The paths differ only in two parameters. The item
// *source* yields item i (by value from a simulator, by const reference
// from a loaded dataset) and carries the path-specific metrics: the
// `*_generated` vs `*_loaded` counters, the generator-only `*.generate`
// phase, and the file-only ingest sink. The *shard* type (Atlas or CDN)
// writes its study's per-item body once; it is compiled twice, metered and
// with every clock read and metric call compiled out, so a run with
// `metrics == nullptr` and a metered run execute the same analyzer calls.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/assoc.h"
#include "core/durations.h"
#include "core/evolution.h"
#include "core/inference.h"
#include "core/parallel.h"
#include "core/sanitize.h"
#include "core/shutdown.h"
#include "core/spatial.h"
#include "core/status.h"
#include "core/tracking.h"
#include "io/checkpoint.h"
#include "io/readers.h"
#include "obs/metrics.h"

namespace dynamips::core {

/// The analyzer sink concepts the pipeline runs on (see core/parallel.h).
template <typename A>
concept ProbeAnalyzer = SinkOf<A, CleanProbe>;
template <typename A>
concept LogAnalyzer = SinkOf<A, cdn::AssociationLog>;

static_assert(ProbeAnalyzer<DurationAnalyzer>);
static_assert(ProbeAnalyzer<SpatialAnalyzer>);
static_assert(ProbeAnalyzer<InferenceCollector>);
static_assert(ProbeAnalyzer<EvolutionAnalyzer>);
static_assert(ProbeAnalyzer<TrackingAnalyzer>);
static_assert(LogAnalyzer<CdnAnalyzer>);
static_assert(MergeableAnalyzer<Sanitizer>);
// Every analyzer is re-finalizable: snapshot() yields finalized, read-only
// results without consuming the accumulator, so a long-lived stream can
// re-finalize after each batch window and keep adding.
static_assert(SnapshotAnalyzer<Sanitizer>);
static_assert(SnapshotAnalyzer<DurationAnalyzer>);
static_assert(SnapshotAnalyzer<SpatialAnalyzer>);
static_assert(SnapshotAnalyzer<InferenceCollector>);
static_assert(SnapshotAnalyzer<EvolutionAnalyzer>);
static_assert(SnapshotAnalyzer<TrackingAnalyzer>);
static_assert(SnapshotAnalyzer<CdnAnalyzer>);
// Shard-local metric buffers ride the same ordered reduction as analyzers.
static_assert(MergeableAnalyzer<obs::MetricsSink>);

// ----------------------------------------------------- crash-safe running
//
// Every study entrypoint can run under supervision: work is dispatched in
// rounds, a shutdown token is polled at round boundaries, and the full
// mid-run state (shard progress + analyzer state + metrics) is periodically
// snapshotted to a checkpoint file (io/checkpoint.h). A run interrupted by
// SIGINT/SIGTERM or a deadline writes a final checkpoint and returns
// kCancelled; resuming from that checkpoint produces results byte-identical
// to an uninterrupted run, at any thread count (the shard partition is
// restored from the checkpoint, so the thread knob only sizes the pool).

struct CheckpointConfig {
  /// Periodic-checkpoint interval, in work items per shard per round (one
  /// Atlas item is one probe's full hourly series; one CDN item is one
  /// population entry's log). 0 disables periodic checkpoints; a shutdown
  /// token may still trigger a final one.
  std::uint64_t every_items = 0;
  /// Checkpoint file path. Required when `every_items > 0` or when a token
  /// is set and an interrupt snapshot is wanted; `.prev` / `.tmp` siblings
  /// are managed next to it.
  std::string path;
  /// Cooperative-shutdown flag polled at round boundaries (never mid-item).
  /// Null disables polling.
  ShutdownToken* token = nullptr;
  /// Checkpoint to resume from; null starts fresh. The study validates the
  /// checkpoint kind, config fingerprint and item count and rejects
  /// mismatches with kFailedPrecondition.
  const io::StudyCheckpoint* resume = nullptr;

  /// Multi-process sharding: this process analyzes slice `shard_index` of
  /// `shard_count` contiguous item slices (each further subdivided across
  /// its threads) and, instead of finalizing, writes a completed
  /// checkpoint to `path` — the merge wire format. A merge run combines
  /// the per-process checkpoints (io::combine_shard_checkpoints) and
  /// resumes from the result; ordered reduction over the combined shard
  /// table makes the merged study byte-identical to a single-process run.
  /// shard_count <= 1 (the default) disables sharding. Neither field
  /// enters any config fingerprint — like the thread count, sharding is
  /// results-invariant.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;

  bool sharded() const { return shard_count > 1; }

  /// True when any supervision feature is active.
  bool active() const { return every_items > 0 || token != nullptr; }
};

struct AtlasStudyConfig {
  atlas::AtlasConfig atlas;
  SanitizeOptions sanitize;
  ChangeOptions changes;
  /// Shard/thread count: 0 = hardware_concurrency, 1 = serial. Results are
  /// identical for every value; only wall-clock changes.
  unsigned threads = 0;
  /// Observability sink: when non-null the pipeline records throughput
  /// counters, per-analyzer phase timings, and shard-imbalance gauges into
  /// per-shard buffers and merges them here after the ordered reduction.
  /// Null (the default) skips all metric work, including clock reads, and
  /// never changes study results either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything the Atlas-side benches print.
struct AtlasStudy {
  SanitizeStats sanitize;
  std::map<bgp::Asn, AsDurationStats> durations;
  std::map<bgp::Asn, AsSpatialStats> spatial;
  std::map<bgp::Asn, std::vector<SubscriberInference>> subscriber_inference;
  std::map<bgp::Asn, std::vector<PoolInference>> pool_inference;
  std::map<bgp::Asn, std::string> as_names;
  bgp::Rib rib;
};

/// Run the full Atlas pipeline over the given ISP profiles.
AtlasStudy run_atlas_study(const std::vector<simnet::IspProfile>& isps,
                           const AtlasStudyConfig& config);

/// Supervised variant: honors CheckpointConfig (periodic checkpoints,
/// shutdown polling, resume). Returns kCancelled when interrupted (after
/// writing a final checkpoint when a path is configured) and
/// kFailedPrecondition / kDataLoss for unusable resume state. With a
/// default CheckpointConfig this is exactly run_atlas_study.
Expected<AtlasStudy> run_atlas_study_supervised(
    const std::vector<simnet::IspProfile>& isps,
    const AtlasStudyConfig& config, const CheckpointConfig& checkpoint = {});

struct CdnStudyConfig {
  cdn::CdnConfig cdn;
  AssocOptions assoc;
  /// Shard/thread count: 0 = hardware_concurrency, 1 = serial.
  unsigned threads = 0;
  /// Observability sink; see AtlasStudyConfig::metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything the CDN-side benches print. `analyzer` is a finalized,
/// read-only snapshot of the accumulator (core/assoc.h CdnSnapshot); the
/// accumulator itself stays live inside the pipeline so streaming runs can
/// keep adding after extraction.
struct CdnStudy {
  CdnSnapshot analyzer;
  std::map<bgp::Asn, std::string> asn_names;
};

/// Run the full CDN pipeline over the given population.
CdnStudy run_cdn_study(const std::vector<cdn::PopulationEntry>& population,
                       const CdnStudyConfig& config);

/// Supervised variant; see run_atlas_study_supervised.
Expected<CdnStudy> run_cdn_study_supervised(
    const std::vector<cdn::PopulationEntry>& population,
    const CdnStudyConfig& config, const CheckpointConfig& checkpoint = {});

// ------------------------------------------------- file-driven entrypoints
//
// The _from_files variants run the identical analyses over datasets loaded
// from exported CSVs (io/readers.h) instead of the in-process generators:
// real-data mode. They are fully fallible — ingestion failures (missing
// file, error budget exceeded) and shard-task exceptions come back as a
// `Status`; no exception escapes and no worker ever reaches
// std::terminate. A clean export of a synthetic dataset produces results
// byte-identical to the generator path at the same seed and any `threads`.

struct AtlasFileStudyConfig {
  SanitizeOptions sanitize;
  ChangeOptions changes;
  /// Shard/thread count: 0 = hardware_concurrency, 1 = serial. Results are
  /// identical for every value; only wall-clock changes.
  unsigned threads = 0;
  /// Observability sink; see AtlasStudyConfig::metrics. Ingestion counters
  /// (`ingest.*`) are recorded here as well.
  obs::MetricsRegistry* metrics = nullptr;
  /// Ingestion hardening knobs: error budget, quarantine sink, line caps.
  io::ReaderOptions reader;
};

/// Load echo datasets from `paths` (later files merge into earlier probes)
/// and run the full Atlas pipeline over them. `isps` provides the RIB and
/// AS names, exactly as in run_atlas_study. `ingest`, when non-null,
/// receives the ingestion accounting even on failure.
Expected<AtlasStudy> run_atlas_study_from_files(
    const std::vector<std::string>& paths,
    const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, io::IngestStats* ingest = nullptr,
    const CheckpointConfig& checkpoint = {});

struct CdnFileStudyConfig {
  AssocOptions assoc;
  /// Shard/thread count: 0 = hardware_concurrency, 1 = serial.
  unsigned threads = 0;
  /// Observability sink; see AtlasStudyConfig::metrics.
  obs::MetricsRegistry* metrics = nullptr;
  /// Ingestion hardening knobs.
  io::ReaderOptions reader;
  /// Ground-truth access type per ASN (the CSV schema carries none): logs
  /// whose ASN is listed here are analyzed as mobile networks.
  std::unordered_set<bgp::Asn> mobile_asns;
  /// Registry attribution per ASN; ASNs not listed default to kRipe.
  std::map<bgp::Asn, bgp::Registry> registries;
  /// Display names for the study output (optional).
  std::map<bgp::Asn, std::string> asn_names;
};

/// Load association datasets from `paths` (logs grouped by origin asn6,
/// later files merge into earlier logs) and run the full CDN pipeline.
Expected<CdnStudy> run_cdn_study_from_files(
    const std::vector<std::string>& paths, const CdnFileStudyConfig& config,
    io::IngestStats* ingest = nullptr, const CheckpointConfig& checkpoint = {});

// --------------------------------------------------- streaming entrypoints
//
// A streaming study watches a directory for exported batch files (the same
// CSV schema the _from_files entrypoints read), ingests each new batch
// through the fault-tolerant readers, and periodically re-finalizes: every
// analyzer's snapshot() produces a finalized AtlasStudy/CdnStudy without
// consuming the accumulators, so the next batch keeps adding.
//
// Determinism contract: batches are consumed in natural filename order
// (natural_name_less below: digit runs compare numerically, so `batch-10`
// follows `batch-9`), and ingesting batches B1..Bk produces results
// byte-identical to a one-shot _from_files run over [B1, ..., Bk] — at any
// thread count, and including across a mid-stream interrupt + resume. The
// stream checkpoint (kCkptAtlasStream / kCkptCdnStream) carries a monotone
// batch high-water mark, written after every batch, so a killed stream
// replays only unconsumed batches: each consumed batch's records go into
// the checkpoint's journal as one DYNCOL1 segment, and a small manifest
// commits the consumed batch list and the journal's segments
// (io/checkpoint.h).

class ResourceGovernor;  // core/resource.h

/// Natural-number-aware name ordering — the stream's batch consumption
/// order. Maximal digit runs compare by numeric value (so `batch-1000`
/// follows `batch-999` even though it sorts lexicographically before it),
/// everything else byte-wise; equal values written with different widths
/// ("7" vs "007") break toward the shorter run, keeping the order total
/// and deterministic. Digit runs compare as stripped strings (length,
/// then bytes), so arbitrarily long counters never overflow.
bool natural_name_less(std::string_view a, std::string_view b);

struct StreamConfig {
  /// Re-finalize (snapshot + callback) after this many newly consumed
  /// batches. 0 disables count-triggered re-finalization.
  std::uint64_t refinalize_every_batches = 8;
  /// Also re-finalize when this many seconds elapsed since the last
  /// re-finalization and at least one new batch arrived. 0 disables the
  /// timer.
  double refinalize_seconds = 0.0;
  /// Directory poll interval while idle.
  std::uint64_t poll_ms = 200;
  /// A file with this basename in the watch directory ends the stream:
  /// after every earlier batch is consumed, a final re-finalization runs
  /// (with metrics recorded) and the entrypoint returns the study.
  std::string stop_sentinel = "stream.stop";
  /// Test hook: stop after consuming this many batches even without the
  /// sentinel. 0 means "run until the sentinel appears".
  std::uint64_t max_batches = 0;
  /// Stream checkpoint path: the manifest, with its journal at
  /// `checkpoint_path.journal`. Empty disables checkpointing. A fresh
  /// stream empties a stale journal there; a resumed one leaves it holding
  /// exactly the resumed checkpoint's segments.
  std::string checkpoint_path;
  /// Cooperative-shutdown flag, polled between batches and between
  /// analysis rounds. Interrupts return kCancelled; the batch high-water
  /// mark checkpoint is already durable, so no data is lost.
  ShutdownToken* token = nullptr;
  /// Checkpoint to resume from; null starts fresh. Kind, fingerprint and
  /// consumed-batch list are validated, and the dataset is rebuilt from
  /// the segments of its journal (`resume->journal_path`), which may be
  /// another checkpoint's than `checkpoint_path`'s.
  const io::StudyCheckpoint* resume = nullptr;
  /// Transient-IO retry budget: total attempts per batch load / checkpoint
  /// write (first try included). 1 disables retries. Each failed attempt
  /// bumps `io.retries`; exhausting the budget bumps `io.giveups` and the
  /// run returns resumable (kCancelled) when a durable checkpoint exists.
  std::uint64_t io_retry_attempts = 3;
  /// Exponential-backoff base: attempt k sleeps base<<k milliseconds plus
  /// a jitter in [0, base] derived from io_retry_seed — deterministic, so
  /// chaos runs replay with identical timing decisions.
  std::uint64_t io_retry_base_ms = 20;
  /// Seed for the backoff jitter (never wall-clock randomness).
  std::uint64_t io_retry_seed = 0;
  /// Resource governor (core/resource.h); null disables governance. The
  /// stream polls it at batch boundaries and walks the degradation
  /// ladder: memory pressure forces an early checkpoint and defers
  /// intermediate re-finalizations, disk soft pressure drops checkpoint
  /// retention to keep-last-1 and sheds quarantine writes, disk hard
  /// pressure pauses ingest until space recovers. None of these change
  /// the final outputs (only intermediate publications and diagnostics),
  /// so governor knobs are excluded from checkpoint fingerprints.
  ResourceGovernor* governor = nullptr;
  /// Backpressure: when the last consumed batch's `stream.lag_seconds`
  /// exceeds this, intermediate re-finalizations are skipped (counted in
  /// `stream.refinalize_skipped`) so ingest can catch up. 0 disables.
  double max_lag_seconds = 0.0;
  /// Bound on the pending-batch backlog admitted per directory sweep;
  /// remaining batches wait for the next sweep (they are not dropped).
  /// Keeps the per-sweep work list — and the checkpoint cadence — bounded
  /// when a burst of batches lands at once. 0 means unbounded.
  std::uint64_t max_backlog_batches = 64;
};

/// Progress of a streaming run, updated as batches are consumed.
struct StreamStats {
  std::uint64_t batches = 0;      ///< batch files consumed
  std::uint64_t records = 0;      ///< records ingested across batches
  std::uint64_t refinalizes = 0;  ///< snapshot passes (incl. the final one)
};

/// Called on every windowed re-finalization with the freshly snapshotted
/// study; use it to re-emit result CSVs while the stream keeps running.
using AtlasSnapshotFn =
    std::function<void(const AtlasStudy&, const StreamStats&)>;
using CdnSnapshotFn = std::function<void(const CdnStudy&, const StreamStats&)>;

/// Long-lived streaming driver: one fixed ShardExecutor is created up front
/// and reused for every re-finalization pass, so steady-state streaming
/// throughput matches the batch path instead of paying pool setup per
/// window.
class StreamDriver {
 public:
  /// `threads == 0` resolves to hardware concurrency (core/parallel.h).
  explicit StreamDriver(unsigned threads = 0);

  unsigned thread_count() const;

  /// Watch `watch_dir` for echo batch files and run the Atlas pipeline.
  /// `isps` provides the RIB and AS names exactly as in
  /// run_atlas_study_from_files; `config.threads` is ignored (the driver's
  /// pool is used). Returns the final study after the stop sentinel, or
  /// kCancelled on interrupt.
  Expected<AtlasStudy> follow_atlas(const std::string& watch_dir,
                                    const std::vector<simnet::IspProfile>& isps,
                                    const AtlasFileStudyConfig& config,
                                    const StreamConfig& stream,
                                    AtlasSnapshotFn on_snapshot = {},
                                    io::IngestStats* ingest = nullptr,
                                    StreamStats* stats = nullptr);

  /// Watch `watch_dir` for association batch files and run the CDN
  /// pipeline; see follow_atlas.
  Expected<CdnStudy> follow_cdn(const std::string& watch_dir,
                                const CdnFileStudyConfig& config,
                                const StreamConfig& stream,
                                CdnSnapshotFn on_snapshot = {},
                                io::IngestStats* ingest = nullptr,
                                StreamStats* stats = nullptr);

 private:
  ShardExecutor exec_;
};

}  // namespace dynamips::core
