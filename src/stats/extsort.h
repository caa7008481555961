// extsort.h — bounded-memory stable external merge sort.
//
// CdnAnalyzer::add_log sorts each log's tuples to group them by /64, and
// the distinct (/24, /64) pairs of those groups by /24; in memory that is
// two radix passes (stats/radix_sort.h). At paper scale (§4: 32.7 B
// association tuples) a single dense log can exceed RAM, so a positive
// --spill-mb routes both sorts through this sorter instead, with the same
// stable order. ExternalSorter keeps the classic external-merge contract:
// push elements until done, then drain them in sorted order. While the
// buffered bytes stay within the budget everything is one in-memory
// stable_sort; past the budget, sorted runs spill to temp files as raw
// little-endian-agnostic memory images (the files never leave the machine
// or the process generation, so native layout is fine) and drain()
// k-way-merges them back.
//
// Determinism: runs are sorted with std::stable_sort and the merge breaks
// comparison ties toward the earlier run, so the drained order equals one
// std::stable_sort over the entire pushed sequence — byte-identical
// downstream results whether the budget was tiny, exact-fit, or never hit.
// That equivalence is what lets --spill-mb stay out of the config
// fingerprint: it bounds the working set, never the answer.
//
// Failure model: spill I/O errors throw std::runtime_error. add_log runs
// inside ShardExecutor::try_dispatch, which captures the exception into a
// kInternal Status — the same path every other worker failure takes. Temp
// files are unlinked as runs are consumed and again in the destructor;
// a killed process leaves only files in its private spill directory,
// which a resumed run never reads (it re-sorts from the checkpoint).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

namespace dynamips::stats {

template <typename T, typename Less>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<T>,
                "spilled elements are raw memory images");

 public:
  struct Options {
    /// Buffered-element budget in bytes; 0 means unbounded (never spills).
    std::uint64_t budget_bytes = 0;
    /// Spill directory; empty uses std::filesystem::temp_directory_path().
    std::string spill_dir;
  };

  explicit ExternalSorter(Options options, Less less = Less())
      : options_(std::move(options)), less_(std::move(less)) {
    if (options_.budget_bytes != 0) {
      capacity_ = options_.budget_bytes / sizeof(T);
      if (capacity_ == 0) capacity_ = 1;
    }
  }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  ~ExternalSorter() {
    std::error_code ec;
    for (const auto& path : runs_) std::filesystem::remove(path, ec);
  }

  void push(const T& value) {
    if (capacity_ != 0 && buffer_.size() >= capacity_) spill_run();
    buffer_.push_back(value);
    ++size_;
  }

  std::uint64_t size() const { return size_; }
  /// Cumulative runs spilled to disk (0 = the sort stayed in memory).
  /// Survives drain() — callers read the counters after consuming the
  /// sorter to report whether the out-of-core path actually ran.
  std::uint64_t spilled_runs() const { return spilled_runs_; }
  std::uint64_t spilled_bytes() const { return spilled_bytes_; }

  /// Emit every pushed element in stable sorted order, consuming the
  /// sorter. Equivalent to std::stable_sort over the pushed sequence.
  template <typename Fn>
  void drain(Fn&& fn) {
    if (runs_.empty()) {
      std::stable_sort(buffer_.begin(), buffer_.end(), less_);
      for (const T& v : buffer_) fn(v);
      buffer_.clear();
      return;
    }
    if (!buffer_.empty()) spill_run();
    merge_runs(fn);
  }

 private:
  void spill_run() {
    std::stable_sort(buffer_.begin(), buffer_.end(), less_);
    const std::filesystem::path path = run_path(runs_.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
      throw std::runtime_error("extsort: cannot create spill run: " +
                               path.string());
    out.write(reinterpret_cast<const char*>(buffer_.data()),
              std::streamsize(buffer_.size() * sizeof(T)));
    out.flush();
    if (!out)
      throw std::runtime_error("extsort: spill run write failed: " +
                               path.string());
    spilled_bytes_ += buffer_.size() * sizeof(T);
    ++spilled_runs_;
    runs_.push_back(path);
    buffer_.clear();
  }

  std::filesystem::path run_path(std::size_t index) const {
    std::filesystem::path dir = options_.spill_dir.empty()
                                    ? std::filesystem::temp_directory_path()
                                    : std::filesystem::path(options_.spill_dir);
#ifdef __unix__
    const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
    const unsigned long pid = 0;
#endif
    char name[96];
    std::snprintf(name, sizeof name, "extsort-%lu-%llx-%zu.run", pid,
                  static_cast<unsigned long long>(
                      reinterpret_cast<std::uintptr_t>(this)),
                  index);
    return dir / name;
  }

  /// One spilled run being replayed: a bounded block of decoded elements
  /// plus the stream it refills from.
  struct RunCursor {
    std::ifstream in;
    std::vector<T> block;
    std::size_t pos = 0;
    bool exhausted = false;

    bool refill(std::size_t block_elems, const std::string& path) {
      block.resize(block_elems);
      in.read(reinterpret_cast<char*>(block.data()),
              std::streamsize(block_elems * sizeof(T)));
      const std::streamsize got = in.gcount();
      if (in.bad() || got % std::streamsize(sizeof(T)) != 0)
        throw std::runtime_error("extsort: spill run read failed: " + path);
      block.resize(std::size_t(got) / sizeof(T));
      pos = 0;
      exhausted = block.empty();
      return !exhausted;
    }
  };

  template <typename Fn>
  void merge_runs(Fn&& fn) {
    const std::size_t n = runs_.size();
    // Split the memory budget across the run readers so the merge obeys
    // the same bound the buffering did.
    std::size_t block_elems = capacity_ / (n + 1);
    if (block_elems == 0) block_elems = 1;

    std::vector<RunCursor> cursors(n);
    for (std::size_t i = 0; i < n; ++i) {
      cursors[i].in.open(runs_[i], std::ios::binary);
      if (!cursors[i].in.is_open())
        throw std::runtime_error("extsort: cannot reopen spill run: " +
                                 runs_[i].string());
      cursors[i].refill(block_elems, runs_[i].string());
    }

    // Min-heap of run indices ordered by (head element, run index); the
    // run-index tie-break is what makes the merge globally stable.
    auto heap_after = [&](std::size_t a, std::size_t b) {
      const T& ha = cursors[a].block[cursors[a].pos];
      const T& hb = cursors[b].block[cursors[b].pos];
      if (less_(hb, ha)) return true;
      if (less_(ha, hb)) return false;
      return b < a;
    };
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        decltype(heap_after)>
        heap(heap_after);
    for (std::size_t i = 0; i < n; ++i)
      if (!cursors[i].exhausted) heap.push(i);

    while (!heap.empty()) {
      const std::size_t i = heap.top();
      heap.pop();
      RunCursor& c = cursors[i];
      fn(c.block[c.pos]);
      if (++c.pos == c.block.size() &&
          !c.refill(block_elems, runs_[i].string())) {
        c.in.close();
        std::error_code ec;
        std::filesystem::remove(runs_[i], ec);
        continue;
      }
      heap.push(i);
    }
    runs_.clear();
  }

  Options options_;
  Less less_;
  std::size_t capacity_ = 0;  ///< buffered elements; 0 = unbounded
  std::vector<T> buffer_;
  std::vector<std::filesystem::path> runs_;
  std::uint64_t size_ = 0;
  std::uint64_t spilled_runs_ = 0;
  std::uint64_t spilled_bytes_ = 0;
};

}  // namespace dynamips::stats
