#include "harness/replay.h"

#include <utility>

#include "core/assoc.h"
#include "core/durations.h"
#include "core/inference.h"
#include "core/observations.h"
#include "core/sanitize.h"
#include "core/spatial.h"

namespace perfbench {

using namespace dynamips;

namespace {

/// One shard's analyzer set, as in the pipeline's AtlasShard.
struct AtlasShard {
  core::Sanitizer sanitizer;
  core::DurationAnalyzer durations;
  core::SpatialAnalyzer spatial;
  core::InferenceCollector inference;

  explicit AtlasShard(const bgp::Rib& rib)
      : sanitizer(rib, core::SanitizeOptions{}),
        durations(core::ChangeOptions{}),
        spatial(rib) {}

  void merge(AtlasShard&& other) {
    sanitizer.merge(std::move(other.sanitizer));
    durations.merge(std::move(other.durations));
    spatial.merge(std::move(other.spatial));
    inference.merge(std::move(other.inference));
  }
};

/// Run `body(shard, lane)` for every shard of `n` items on `exec`, each
/// inside a shard span on a fresh lane, under one dispatch span.
template <typename Shard, typename Body>
void dispatch_traced(std::vector<Shard>& shards,
                     const std::vector<core::ShardRange>& ranges,
                     core::ShardExecutor& exec, Tracer& tracer,
                     const Body& body) {
  const std::size_t base = tracer.add_lanes(ranges.size());
  Scope dispatch(tracer.main(), "core.parallel.dispatch");
  exec.dispatch(ranges.size(), [&](std::size_t s) {
    Lane& lane = tracer.lane(base + s);
    Scope shard(lane, kShardSpan);
    shard.work = ranges[s].size();
    for (std::size_t i = ranges[s].begin; i < ranges[s].end; ++i)
      body(shards[s], lane, i);
  });
}

/// `item(i, lane, holder)` returns item i's series, generating it into
/// `holder` (under its own span) when it is not already in memory.
template <typename Item>
core::AtlasStudy atlas_pass(std::size_t count,
                            const std::vector<simnet::IspProfile>& isps,
                            core::ShardExecutor& exec, Tracer& tracer,
                            const Item& item) {
  core::AtlasStudy study;
  simnet::announce_all(isps, study.rib);
  for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;

  const auto ranges = core::shard_ranges(count, exec.thread_count());
  std::vector<AtlasShard> shards;
  shards.reserve(ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) shards.emplace_back(study.rib);

  dispatch_traced(shards, ranges, exec, tracer,
                  [&](AtlasShard& shard, Lane& lane, std::size_t i) {
    atlas::ProbeSeries holder;
    const atlas::ProbeSeries& series = item(i, lane, holder);
    const std::uint64_t records = series.records.size();
    core::ProbeObservations obs;
    {
      Scope span(lane, "core.from_series");
      obs = core::from_series(series);
      span.work = records;
    }
    std::vector<core::CleanProbe> cleaned;
    {
      Scope span(lane, "core.sanitize");
      cleaned = shard.sanitizer.sanitize(obs);
      span.work = records;
      span.kept = cleaned.size();
    }
    for (const core::CleanProbe& cp : cleaned) {
      {
        Scope span(lane, "core.durations.add");
        shard.durations.add(cp);
        span.work = 1;
      }
      {
        Scope span(lane, "core.spatial.add");
        shard.spatial.add(cp);
        span.work = 1;
      }
      {
        Scope span(lane, "core.inference.add");
        shard.inference.add(cp);
        span.work = 1;
      }
    }
  });

  AtlasShard& root = shards.front();
  {
    Scope span(tracer.main(), "core.parallel.merge");
    for (std::size_t s = 1; s < shards.size(); ++s)
      root.merge(std::move(shards[s]));
  }
  {
    Scope span(tracer.main(), "core.parallel.snapshot");
    root.sanitizer.finalize();
    root.durations.finalize();
    root.spatial.finalize();
    root.inference.finalize();
    study.sanitize = root.sanitizer.snapshot();
    study.durations = root.durations.snapshot();
    study.spatial = root.spatial.snapshot();
    core::InferenceSnapshot inferred = root.inference.snapshot();
    study.subscriber_inference = std::move(inferred.subscriber);
    study.pool_inference = std::move(inferred.pools);
  }
  return study;
}

template <typename Item>
void cdn_pass(std::size_t count, const std::unordered_set<bgp::Asn>& mobile,
              core::ShardExecutor& exec, Tracer& tracer, const Item& item,
              core::CdnStudy& study) {
  const auto ranges = core::shard_ranges(count, exec.thread_count());
  std::vector<core::CdnAnalyzer> shards(
      ranges.size(), core::CdnAnalyzer(core::AssocOptions{}, mobile));

  dispatch_traced(shards, ranges, exec, tracer,
                  [&](core::CdnAnalyzer& analyzer, Lane& lane, std::size_t i) {
    cdn::AssociationLog holder;
    const cdn::AssociationLog& log = item(i, lane, holder);
    Scope span(lane, "core.assoc.add_log");
    const std::uint64_t kept_before = analyzer.total_tuples();
    analyzer.add_log(log);
    span.work = log.records.size();
    span.kept = analyzer.total_tuples() - kept_before;
  });

  {
    Scope span(tracer.main(), "core.parallel.merge");
    for (std::size_t s = 1; s < shards.size(); ++s)
      shards.front().merge(std::move(shards[s]));
  }
  Scope span(tracer.main(), "core.parallel.snapshot");
  shards.front().finalize();
  study.analyzer = shards.front().snapshot();
}

}  // namespace

CdnAttribution default_cdn_attribution() {
  CdnAttribution out;
  for (const auto& entry : cdn::default_cdn_population()) {
    if (entry.isp.mobile) out.mobile.insert(entry.isp.asn);
    out.registries[entry.isp.asn] = entry.isp.registry;
    out.names[entry.isp.asn] = entry.isp.name;
  }
  return out;
}

core::AtlasStudy traced_atlas_generated(
    const std::vector<simnet::IspProfile>& isps,
    const atlas::AtlasConfig& config, core::ShardExecutor& exec,
    Tracer& tracer) {
  atlas::AtlasSimulator sim(isps, config);
  return atlas_pass(
      sim.probe_count(), isps, exec, tracer,
      [&](std::size_t i, Lane& lane,
          atlas::ProbeSeries& holder) -> const atlas::ProbeSeries& {
        Scope span(lane, "atlas.series_for");
        holder = sim.series_for(i);
        span.work = holder.records.size();
        return holder;
      });
}

core::AtlasStudy traced_atlas_dataset(
    const std::vector<atlas::ProbeSeries>& dataset,
    const std::vector<simnet::IspProfile>& isps, core::ShardExecutor& exec,
    Tracer& tracer) {
  return atlas_pass(dataset.size(), isps, exec, tracer,
                    [&](std::size_t i, Lane&, atlas::ProbeSeries&)
                        -> const atlas::ProbeSeries& { return dataset[i]; });
}

core::CdnStudy traced_cdn_generated(
    const std::vector<cdn::PopulationEntry>& population,
    const cdn::CdnConfig& config, core::ShardExecutor& exec,
    Tracer& tracer) {
  cdn::CdnSimulator sim(population, config);
  core::CdnStudy study;
  for (const auto& entry : population)
    study.asn_names[entry.isp.asn] = entry.isp.name;
  cdn_pass(sim.entry_count(), sim.mobile_asns(), exec, tracer,
           [&](std::size_t i, Lane& lane,
               cdn::AssociationLog& holder) -> const cdn::AssociationLog& {
             Scope span(lane, "cdn.generate");
             holder = sim.generate(i);
             span.work = holder.records.size();
             return holder;
           },
           study);
  return study;
}

core::CdnStudy traced_cdn_dataset(std::vector<cdn::AssociationLog>& dataset,
                                  const CdnAttribution& attribution,
                                  core::ShardExecutor& exec, Tracer& tracer) {
  for (auto& log : dataset) {
    log.mobile = attribution.mobile.count(log.asn) > 0;
    auto reg = attribution.registries.find(log.asn);
    log.registry =
        reg == attribution.registries.end() ? bgp::Registry::kRipe : reg->second;
  }
  core::CdnStudy study;
  study.asn_names = attribution.names;
  cdn_pass(dataset.size(), attribution.mobile, exec, tracer,
           [&](std::size_t i, Lane&, cdn::AssociationLog&)
               -> const cdn::AssociationLog& { return dataset[i]; },
           study);
  return study;
}

}  // namespace perfbench
