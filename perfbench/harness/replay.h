// replay.h — the traced replay of the study pipeline's analysis pass.
//
// core/pipeline.cpp runs each study as: plan contiguous shards, dispatch
// them on a ShardExecutor, run every item through from_series → sanitize →
// the analyzers' add (Atlas) or add_log (CDN), reduce the shards in index
// order, finalize, and snapshot. These functions repeat that loop from the
// benchmark's side, calling the same public functions, with a span around
// each call. Because the shard plan and the ordered reduction are the
// same, a replayed study is identical to the public entrypoint's — the
// fidelity test checks this CSV by CSV.
#pragma once

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "atlas/generator.h"
#include "cdn/generator.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "harness/trace.h"

namespace perfbench {

/// The ground truth the file-driven CDN study grafts onto loaded logs (the
/// CSV/columnar schema carries none), taken from the default population
/// exactly as tools/dynamips_study does.
struct CdnAttribution {
  std::unordered_set<dynamips::bgp::Asn> mobile;
  std::map<dynamips::bgp::Asn, dynamips::bgp::Registry> registries;
  std::map<dynamips::bgp::Asn, std::string> names;
};
CdnAttribution default_cdn_attribution();

/// Atlas study over generated probes (run_atlas_study_supervised's loop).
dynamips::core::AtlasStudy traced_atlas_generated(
    const std::vector<dynamips::simnet::IspProfile>& isps,
    const dynamips::atlas::AtlasConfig& config,
    dynamips::core::ShardExecutor& exec, Tracer& tracer);

/// Atlas study over a loaded dataset (run_atlas_study_from_files' loop).
dynamips::core::AtlasStudy traced_atlas_dataset(
    const std::vector<dynamips::atlas::ProbeSeries>& dataset,
    const std::vector<dynamips::simnet::IspProfile>& isps,
    dynamips::core::ShardExecutor& exec, Tracer& tracer);

/// CDN study over generated logs (run_cdn_study_supervised's loop).
dynamips::core::CdnStudy traced_cdn_generated(
    const std::vector<dynamips::cdn::PopulationEntry>& population,
    const dynamips::cdn::CdnConfig& config,
    dynamips::core::ShardExecutor& exec, Tracer& tracer);

/// CDN study over loaded logs (run_cdn_study_from_files' loop). Grafts
/// the attribution onto `dataset` first, as the pipeline does.
dynamips::core::CdnStudy traced_cdn_dataset(
    std::vector<dynamips::cdn::AssociationLog>& dataset,
    const CdnAttribution& attribution, dynamips::core::ShardExecutor& exec,
    Tracer& tracer);

}  // namespace perfbench
