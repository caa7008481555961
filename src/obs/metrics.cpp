#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dynamips::obs {

namespace {

/// map::try_emplace with a string_view key (the maps use transparent
/// comparators for lookups, but insertion still needs an owning string).
template <typename Map>
typename Map::mapped_type& named(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it != map.end()) return it->second;
  return map.emplace(std::string(name), typename Map::mapped_type{})
      .first->second;
}

}  // namespace

Counter& MetricsSink::counter(std::string_view name) {
  return named(counters_, name);
}

Gauge& MetricsSink::gauge(std::string_view name) {
  return named(gauges_, name);
}

Histogram& MetricsSink::histogram(std::string_view name, double lo_exp,
                                  double hi_exp, int bins_per_decade) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), Histogram(lo_exp, hi_exp, bins_per_decade))
      .first->second;
}

PhaseStats& MetricsSink::phase(std::string_view name) {
  return named(phases_, name);
}

void MetricsSink::merge(MetricsSink&& other) {
  for (auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      histograms_.emplace(name, std::move(h));
    else
      it->second.merge(h);
  }
  for (auto& [name, p] : other.phases_) phases_[name].merge(p);
  other = MetricsSink{};
}

void MetricsSink::erase(std::string_view name) {
  auto drop = [&](auto& map) {
    if (auto it = map.find(name); it != map.end()) map.erase(it);
  };
  drop(counters_);
  drop(gauges_);
  drop(histograms_);
  drop(phases_);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::merge(MetricsSink&& sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_.merge(std::move(sink));
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_.counter(name).add(n);
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_.gauge(name).set(value);
}

void MetricsRegistry::record_phase(std::string_view name, std::uint64_t ns) {
  std::lock_guard<std::mutex> lk(mu_);
  sink_.phase(name).record(ns);
}

MetricsSink MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sink_;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sink_.empty();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  sink_ = MetricsSink{};
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return std::uint64_t(usage.ru_maxrss);  // already bytes on macOS
#else
  return std::uint64_t(usage.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace dynamips::obs
