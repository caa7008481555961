#include "harness/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

std::uint64_t now_ns() { return dynamips::obs::now_ns(); }

void Lane::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : std::int32_t(open_.back());
  s.lane = id_;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
}

void Lane::close(std::uint64_t work, std::uint64_t kept) {
  Span& s = spans_[open_.back()];
  s.end_ns = now_ns();
  s.work += work;
  s.kept += kept;
  open_.pop_back();
}

Tracer::Tracer() : origin_ns_(now_ns()) { lanes_.emplace_back(0); }

std::size_t Tracer::add_lanes(std::size_t n) {
  std::size_t first = lanes_.size();
  for (std::size_t i = 0; i < n; ++i)
    lanes_.emplace_back(std::uint32_t(lanes_.size()));
  passes_.emplace_back(first, n);
  return first;
}

std::vector<std::vector<std::uint64_t>> Tracer::pass_lane_busy() const {
  std::vector<std::vector<std::uint64_t>> out;
  for (auto [first, n] : passes_) {
    std::vector<std::uint64_t> busy(n, 0);
    for (std::size_t i = 0; i < n; ++i)
      for (const Span& s : lanes_[first + i].spans())
        if (s.parent < 0) busy[i] += s.end_ns - s.start_ns;
    out.push_back(std::move(busy));
  }
  return out;
}

std::uint64_t Tracer::pass_max_shard_ns() const {
  std::uint64_t total = 0;
  for (const auto& busy : pass_lane_busy())
    if (!busy.empty()) total += *std::max_element(busy.begin(), busy.end());
  return total;
}

std::uint64_t Tracer::pass_mean_shard_ns() const {
  std::uint64_t total = 0;
  for (const auto& busy : pass_lane_busy()) {
    std::uint64_t sum = 0;
    for (std::uint64_t b : busy) sum += b;
    if (!busy.empty()) total += sum / busy.size();
  }
  return total;
}

namespace {

/// Per-span self time: duration minus the durations of direct children.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans)
    if (s.parent >= 0) {
      std::uint64_t d = s.end_ns - s.start_ns;
      std::uint64_t& p = self[std::size_t(s.parent)];
      p = p > d ? p - d : 0;
    }
  return self;
}

}  // namespace

std::map<std::string, LayerStats> Tracer::layers() const {
  std::map<std::string, LayerStats> out;
  for (const Lane& lane : lanes_) {
    const auto& spans = lane.spans();
    std::vector<std::uint64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerStats& l = out[spans[i].name];
      ++l.calls;
      l.busy_ns += spans[i].end_ns - spans[i].start_ns;
      l.self_ns += self[i];
      l.work += spans[i].work;
      l.kept += spans[i].kept;
    }
  }
  return out;
}

std::uint64_t Tracer::shard_busy_ns() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_)
    for (const Span& s : lane.spans())
      if (std::string_view(s.name) == kShardSpan) total += s.end_ns - s.start_ns;
  return total;
}

std::uint64_t Tracer::named_self_ns(
    const std::vector<std::string>& names) const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    const auto& spans = lane.spans();
    std::vector<std::uint64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      // Walk up to the root: only work inside a shard task counts.
      std::int32_t root = std::int32_t(i);
      while (spans[std::size_t(root)].parent >= 0)
        root = spans[std::size_t(root)].parent;
      if (std::string_view(spans[std::size_t(root)].name) != kShardSpan)
        continue;
      if (std::find(names.begin(), names.end(), spans[i].name) != names.end())
        total += self[i];
    }
  }
  return total;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"cat\": \"dynamips\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"parent\": %d, \"shard\": %u, \"work\": %llu}}",
                    first ? "" : ",\n", s.name, s.lane,
                    double(s.start_ns - origin_ns_) / 1e3,
                    double(s.end_ns - s.start_ns) / 1e3, int(s.parent), s.lane,
                    (unsigned long long)s.work);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
