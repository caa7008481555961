// trace.h — in-memory spans for the benchmark's traced runs.
//
// The traced run wraps every call the harness makes into a DynamIPs module
// (generator, sanitizer, analyzer add, shard merge, CSV writer, snapshot
// build, ...) in a span: name, start, end, parent span, and the lane it ran
// on. A lane is one shard task of one analysis pass, or the driving thread;
// spans of one lane form a tree and share the lane id. Each lane is written
// by exactly one thread, so recording takes no locks; lanes are allocated
// before a pass is dispatched. Spans stay in memory and are exported as
// Chrome trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

struct Span {
  const char* name = "";     ///< layer name; a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span in the same lane
  std::uint32_t lane = 0;    ///< shard/thread lane (Chrome "tid")
  std::uint64_t work = 0;    ///< units processed (records, tuples, bytes)
  std::uint64_t kept = 0;    ///< useful outputs, for kept ratios
};

/// One lane's span buffer. Not thread-safe: one writer at a time.
class Lane {
 public:
  explicit Lane(std::uint32_t id) : id_(id) {}

  void open(const char* name);
  /// Close the innermost open span, adding `work`/`kept` to it.
  void close(std::uint64_t work = 0, std::uint64_t kept = 0);

  std::uint32_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span on a lane; set `work`/`kept` before it closes.
class Scope {
 public:
  Scope(Lane& lane, const char* name) : lane_(lane) { lane_.open(name); }
  ~Scope() { lane_.close(work, kept); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t work = 0;
  std::uint64_t kept = 0;

 private:
  Lane& lane_;
};

/// Aggregate of every span with one name.
struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;  ///< summed span durations
  std::uint64_t self_ns = 0;  ///< busy minus time covered by child spans
  std::uint64_t work = 0;
  std::uint64_t kept = 0;
};

/// Name of the span wrapping one shard task of an analysis pass.
inline constexpr const char* kShardSpan = "core.parallel.shard";

class Tracer {
 public:
  Tracer();

  /// The driving thread's lane (lane 0).
  Lane& main() { return lanes_.front(); }
  /// Allocate `n` fresh lanes (one per shard of a pass) before dispatch;
  /// returns the index of the first. References stay valid.
  std::size_t add_lanes(std::size_t n);
  Lane& lane(std::size_t index) { return lanes_[index]; }

  /// Per-name totals over every recorded span.
  std::map<std::string, LayerStats> layers() const;
  /// Σ duration of all shard spans.
  std::uint64_t shard_busy_ns() const;
  /// Per pass (one add_lanes call): the slowest and the mean shard's busy
  /// time, summed over passes — the critical path and the balanced ideal.
  std::uint64_t pass_max_shard_ns() const;
  std::uint64_t pass_mean_shard_ns() const;
  /// Σ self time, inside shard spans, of spans whose name is in `names`.
  std::uint64_t named_self_ns(const std::vector<std::string>& names) const;

  /// Chrome trace-event JSON ("X" events, microseconds since the tracer
  /// was created; args carry parent, shard lane and work).
  std::string chrome_json() const;

 private:
  /// Busy time of each lane of each pass.
  std::vector<std::vector<std::uint64_t>> pass_lane_busy() const;

  std::uint64_t origin_ns_;
  std::deque<Lane> lanes_;
  std::vector<std::pair<std::size_t, std::size_t>> passes_;  ///< first, n
};

}  // namespace perfbench
