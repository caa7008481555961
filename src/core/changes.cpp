#include "core/changes.h"

#include <algorithm>

namespace dynamips::core {

std::vector<Span4> extract_spans4(std::span<const Obs4> obs) {
  std::vector<Span4> spans;
  for (const auto& o : obs) {
    if (!spans.empty() && spans.back().addr == o.addr) {
      spans.back().last_seen = o.hour;
    } else {
      spans.push_back({o.hour, o.hour, o.addr});
    }
  }
  return spans;
}

std::vector<Span6> extract_spans6(std::span<const Obs6> obs) {
  std::vector<Span6> spans;
  for (const auto& o : obs) {
    std::uint64_t net = o.addr.network64();
    if (!spans.empty() && spans.back().net64 == net) {
      spans.back().last_seen = o.hour;
    } else {
      spans.push_back({o.hour, o.hour, net});
    }
  }
  return spans;
}

std::vector<Change4> extract_changes4(std::span<const Span4> spans) {
  std::vector<Change4> out;
  for (std::size_t i = 1; i < spans.size(); ++i)
    out.push_back({spans[i].first_seen, spans[i - 1].addr, spans[i].addr});
  return out;
}

std::vector<Change6> extract_changes6(std::span<const Span6> spans) {
  std::vector<Change6> out;
  for (std::size_t i = 1; i < spans.size(); ++i)
    out.push_back(
        {spans[i].first_seen, spans[i - 1].net64, spans[i].net64});
  return out;
}

namespace {

// Shared sandwiching logic over any span type.
template <typename Span>
std::vector<TimedDuration> sandwiched(std::span<const Span> spans,
                                      const ChangeOptions& opt) {
  std::vector<TimedDuration> out;
  for_each_sandwiched(spans, opt,
                      [&out](const TimedDuration& d) { out.push_back(d); });
  return out;
}

}  // namespace

std::vector<Hour> sandwiched_durations4(std::span<const Span4> spans,
                                        const ChangeOptions& opt) {
  std::vector<Hour> out;
  for_each_sandwiched(spans, opt, [&out](const TimedDuration& d) {
    out.push_back(d.duration);
  });
  return out;
}

std::vector<TimedDuration> sandwiched_timed4(std::span<const Span4> spans,
                                             const ChangeOptions& opt) {
  return sandwiched(spans, opt);
}

std::vector<TimedDuration> sandwiched_timed6(std::span<const Span6> spans,
                                             const ChangeOptions& opt) {
  return sandwiched(spans, opt);
}

std::optional<double> change_cooccurrence(std::span<const Change4> v4,
                                          std::span<const Change6> v6,
                                          Hour window) {
  if (v4.empty()) return std::nullopt;
  std::size_t hits = 0;
  std::size_t j = 0;
  for (const auto& c4 : v4) {
    while (j < v6.size() && v6[j].at + window < c4.at) ++j;
    if (j < v6.size() && v6[j].at <= c4.at + window) ++hits;
  }
  return double(hits) / double(v4.size());
}

}  // namespace dynamips::core
