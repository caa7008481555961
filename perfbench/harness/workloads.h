// workloads.h — set-up and measurement of the benchmark's workloads.
//
//   gen-full      generator-driven Atlas + CDN one-shot study, all seven
//                 CSVs written (the path the paper-figure benches take)
//   col-full      the same study from DYNCOL1 files written at set-up
//   follow-serve  StreamDriver::follow_atlas over staged echo CSV batches,
//                 re-finalizing and re-publishing to a looking glass after
//                 every batch, while a closed-loop client queries it
//
// `run_setup` writes a workload's inputs and reference outputs into the
// working directory; `run_measure` measures for the requested time,
// checks every output against the references, and prints one JSON result
// line. The remaining declarations are the building blocks, shared with
// the fidelity test.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "atlas/generator.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "harness/flags.h"
#include "harness/lg_client.h"
#include "harness/trace.h"
#include "lg/server.h"
#include "lg/service.h"
#include "obs/metrics.h"

namespace perfbench {

int run_setup(const Options& options);
int run_measure(const Options& options);

/// A workload's fixed parameters (scale/threads overridable by flags).
struct Params {
  Workload workload = Workload::kGenFull;
  std::uint64_t seed = 1;
  double scale = 0.3;
  unsigned threads = 4;
  std::uint64_t window_hours = 30000;
  std::uint64_t batches = 12;  ///< follow-serve only
  /// follow-serve: echo records staged (write_echo_batches' max_records).
  std::uint64_t stream_records = 0;
};
Params workload_params(const Options& options);

/// The one-shot study's Atlas and CDN configurations for `p` (the CDN
/// seed is seed × 977, as in tools/dynamips_study).
dynamips::atlas::AtlasConfig atlas_config(const Params& p);
dynamips::cdn::CdnConfig cdn_config(const Params& p);

/// Result CSVs rendered in memory: file name -> bytes.
std::map<std::string, std::string> atlas_csvs(
    const dynamips::core::AtlasStudy& study);
std::map<std::string, std::string> cdn_csvs(const dynamips::core::CdnStudy& study);

/// "size:crc32:fnv1a" of a byte string.
std::string digest(std::string_view bytes);

/// Generate the Atlas echo dataset of `p`, probes in index order.
std::vector<dynamips::atlas::ProbeSeries> generate_echo(
    const Params& p, dynamips::core::ShardExecutor& exec);

/// Split `dataset` into `batches` consecutive hour ranges holding about the
/// same number of records and write each as an echo CSV (`batch-NN.csv`,
/// only probes with records in the range). With `max_records` > 0 only the
/// hours up to the one holding the dataset's `max_records`-th record (in
/// time order) are kept. Together these make batch k's size, and so the
/// stream's cost up to it, independent of the seed. Returns the paths in
/// consumption order.
std::vector<std::string> write_echo_batches(
    const std::vector<dynamips::atlas::ProbeSeries>& dataset,
    std::uint64_t batches, const std::filesystem::path& dir,
    std::uint64_t max_records = 0);

/// A looking-glass service behind an LgServer with one worker, remembering
/// every snapshot generation published to it so responses can be checked.
class LgRig {
 public:
  LgRig();
  LgRig(const LgRig&) = delete;
  LgRig& operator=(const LgRig&) = delete;

  std::uint16_t port() const { return server_.port(); }
  void publish(std::shared_ptr<const dynamips::lg::LgSnapshot> atlas,
               std::shared_ptr<const dynamips::lg::LgSnapshot> cdn);
  /// Forget earlier generations (a new run restarts numbering).
  void reset_generations() { generations_.clear(); }
  /// Responses in `traffic` that differ from what LgService::handle renders:
  /// a 200 must equal the render at the generation named in its body, any
  /// other status the render at some published generation.
  std::uint64_t failed_responses(const LgTraffic& traffic,
                                 const std::vector<std::string>& paths);

 private:
  struct Published {
    std::shared_ptr<const dynamips::lg::LgSnapshot> atlas, cdn;
  };
  const dynamips::lg::Response& render(const std::string& path,
                                       std::uint64_t generation);

  dynamips::lg::LgService service_;
  dynamips::lg::LgServer server_;
  std::map<std::uint64_t, Published> generations_;
  std::map<std::pair<std::string, std::uint64_t>, dynamips::lg::Response>
      rendered_;
};

/// The looking-glass request mix for a finished Atlas study: per-AS
/// duration payloads, inference lookups by announced prefix, and pfx2as
/// lookups by prefix address, interleaved.
std::vector<std::string> request_mix(const dynamips::core::AtlasStudy& study);

/// One follow-serve run of the stream over `batch_paths`.
struct FollowRun {
  double wall_s = 0;                ///< start to the final publish
  std::vector<double> refresh_ms;   ///< publish-to-publish, per batch
  double peak_rss_mb = 0;
  dynamips::core::StreamStats stats;
  std::map<std::string, std::string> final_csvs;  ///< name -> digest
  std::uint64_t checkpoint_writes_seen = 0;  ///< new checkpoint at a publish
  std::uint64_t checkpoint_bytes_seen = 0;
  LgTraffic traffic;
};

/// Stage the batches plus the stop sentinel under `work`/watch, run
/// StreamDriver::follow_atlas with a re-finalization after every batch,
/// and publish each one to `rig` (and the result CSVs to `work`/out) as
/// `dynamips_study --follow --serve` does. The client starts at the first
/// publish and stops at the last. `metrics` and `tracer` may be null.
FollowRun follow_run(const Params& p,
                     const std::vector<std::string>& batch_paths,
                     const std::filesystem::path& work,
                     dynamips::obs::MetricsRegistry* metrics, Tracer* tracer,
                     LgRig& rig, LgClient* client);

}  // namespace perfbench
