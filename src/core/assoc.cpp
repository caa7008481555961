#include "core/assoc.h"

#include <algorithm>
#include <cstddef>
#include <functional>

#include "stats/extsort.h"
#include "stats/radix_sort.h"

namespace dynamips::core {

namespace {

/// One accepted association tuple, flattened for the /64 grouping sort.
/// `v4` is the /24's sort key (v4_key).
struct Tuple {
  std::uint64_t net64;
  std::uint64_t v4;
  std::uint32_t day;
};

struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.net64 < b.net64;
  }
};

/// A /24 as one integer, `address << 8 | length`: equal keys are equal
/// prefixes, and the integer order is Prefix4's (address, length) order.
std::uint64_t v4_key(const net::Prefix4& p) {
  return std::uint64_t(p.address().value()) << 8 | std::uint64_t(p.length());
}

/// Distinct (/24, /64) pairs of the in-memory path: the /24 keys of every
/// /64 group walked so far, back to back. The current group's distinct
/// /24s are keys[group_begin, size), usually a single entry, so the
/// duplicate check is a short scan.
struct SlabPairs {
  std::uint64_t* keys;
  std::size_t size = 0;
  std::size_t group_begin = 0;

  void start_group() { group_begin = size; }
  std::size_t group_size() const { return size - group_begin; }
  void add(std::uint64_t key) {
    for (std::size_t i = group_begin; i < size; ++i)
      if (keys[i] == key) return;
    keys[size++] = key;
  }
};

using PairSorter = stats::ExternalSorter<std::uint64_t, std::less<>>;

/// Distinct pairs of the out-of-core path: the current group's distinct
/// /24s in a scratch list, each also pushed to the external pair sorter.
struct SpilledPairs {
  ArenaVector<std::uint64_t> group;
  PairSorter& sorter;

  void start_group() { group.clear(); }
  std::size_t group_size() const { return group.size(); }
  void add(std::uint64_t key) {
    if (std::find(group.begin(), group.end(), key) != group.end()) return;
    group.push_back(key);
    sorter.push(key);
  }
};

}  // namespace

void CdnAnalyzer::add_log(const cdn::AssociationLog& log) {
  bool mobile = mobile_asns_.count(log.asn) > 0;
  AsnAssocStats& asn_stats = by_asn_[log.asn];
  asn_stats.asn = log.asn;
  asn_stats.mobile = mobile;
  asn_stats.registry = log.registry;

  RegistryClass cls{log.registry, mobile};
  auto& reg_durations = registry_durations_[cls];
  auto& zeros = zero_counts_[cls];

  // The analysis proper is a pair of streaming consumers over sorted
  // sequences — fed either from in-memory radix sorts (the default) or
  // from external-merge drains (spill_mb > 0). Both sorts are stable by
  // the same key, so both paths produce byte-identical analyzer state.
  //
  // Consumer 1: tuples sorted by /64. Segments association runs (same /24,
  // gaps no longer than max_gap_days), tallies the /64-level stats, and
  // records each distinct (/24, /64) pair once in `pairs` — a pair repeats
  // once per day it is seen, so this is what keeps consumer 2 small.
  bool in_group = false;
  std::uint64_t cur_net64 = 0;
  std::uint32_t run_start = 0;
  std::uint32_t run_last = 0;
  std::uint64_t run_24 = 0;
  auto close_run = [&] {
    double days = double(run_last - run_start + 1);
    asn_stats.durations_days.push_back(days);
    reg_durations.push_back(days);
  };
  auto close_group = [&](const auto& pairs) {
    close_run();
    if (pairs.group_size() > 1) {
      ++multi_24_64s_[mobile];
    } else {
      ++single_24_64s_[mobile];
    }
  };
  auto feed_tuple = [&](const Tuple& t, auto& pairs) {
    if (!in_group || t.net64 != cur_net64) {
      if (in_group) close_group(pairs);
      in_group = true;
      cur_net64 = t.net64;
      ++asn_stats.unique_64s;
      zeros.add(classify_trailing_zeros(t.net64));
      pairs.start_group();
      pairs.add(t.v4);
      run_start = run_last = t.day;
      run_24 = t.v4;
      return;
    }
    if (t.v4 != run_24) pairs.add(t.v4);
    bool gap = t.day > run_last + options_.max_gap_days;
    if (t.v4 != run_24 || gap) {
      close_run();
      run_start = t.day;
      run_24 = t.v4;
    }
    run_last = t.day;
  };
  auto finish_tuples = [&](const auto& pairs) {
    if (in_group) close_group(pairs);
  };

  // Consumer 2: the distinct pairs' /24 keys in sorted order. Each /24's
  // degree (unique /64s) is the length of its run of equal keys.
  bool have_key = false;
  std::uint64_t prev_key = 0;
  std::uint32_t degree = 0;
  auto feed_key = [&](std::uint64_t key) {
    if (have_key && key != prev_key) {
      degrees_.emplace_back(degree, mobile);
      degree = 0;
    }
    have_key = true;
    prev_key = key;
    ++degree;
  };
  auto finish_keys = [&] {
    if (have_key) degrees_.emplace_back(degree, mobile);
  };

  auto accept = [&](const cdn::AssociationRecord& rec) {
    if (options_.require_asn_match && rec.asn4 != rec.asn6) {
      ++asn_stats.mismatched;
      ++total_mismatched_;
      return false;
    }
    ++asn_stats.tuples;
    ++total_tuples_;
    return true;
  };
  auto tuple_of = [](const cdn::AssociationRecord& rec) {
    return Tuple{rec.v6_64.address().network64(), v4_key(rec.v4_24),
                 rec.day};
  };

  if (options_.spill_mb == 0) {
    // In-memory path: one exact-size slab from the per-shard arena holds
    // the flattened tuples, the radix sort's ping-pong buffer and its
    // digit histograms; after the first few logs the steady state
    // allocates nothing per call. Records arrive day-sorted per log and
    // the radix sort is stable, so each /64 group stays in record order.
    // Once the walk starts, whichever tuple buffer the sort left free
    // holds the distinct pair keys and, behind them, their own ping-pong
    // half: 2 x 8 bytes per pair fit in one 24-byte Tuple per tuple.
    static_assert(2 * sizeof(std::uint64_t) <= sizeof(Tuple));
    arena_.reset();
    const std::size_t cap = log.records.size();
    auto* slab = static_cast<std::byte*>(arena_.allocate(
        2 * cap * sizeof(Tuple) + stats::kRadixCounts * sizeof(std::size_t),
        alignof(Tuple)));
    Tuple* tuples = reinterpret_cast<Tuple*>(slab);
    Tuple* spare = tuples + cap;
    auto* counts = reinterpret_cast<std::size_t*>(spare + cap);
    std::size_t n = 0;
    for (const auto& rec : log.records)
      if (accept(rec)) tuples[n++] = tuple_of(rec);

    const Tuple* sorted = stats::radix_sort(
        tuples, spare, n, [](const Tuple& t) { return t.net64; }, counts);
    SlabPairs pairs{reinterpret_cast<std::uint64_t*>(
        sorted == tuples ? spare : tuples)};
    for (std::size_t i = 0; i < n; ++i) feed_tuple(sorted[i], pairs);
    finish_tuples(pairs);

    const std::uint64_t* keys = stats::radix_sort(
        pairs.keys, pairs.keys + pairs.size, pairs.size,
        [](std::uint64_t k) { return k; }, counts);
    for (std::size_t i = 0; i < pairs.size; ++i) feed_key(keys[i]);
    finish_keys();
    return;
  }

  // Out-of-core path: the same orders through the external merge, working
  // set bounded by spill_mb per shard. The budget is split between the two
  // live sorters (the pair sorter fills while the tuple sorter drains).
  stats::ExternalSorter<Tuple, TupleLess>::Options topt;
  topt.budget_bytes = options_.spill_mb * 1024 * 1024 / 2;
  topt.spill_dir = options_.spill_dir;
  PairSorter::Options popt;
  popt.budget_bytes = topt.budget_bytes;
  popt.spill_dir = options_.spill_dir;

  stats::ExternalSorter<Tuple, TupleLess> tuple_sorter(topt);
  PairSorter pair_sorter(popt);
  for (const auto& rec : log.records)
    if (accept(rec)) tuple_sorter.push(tuple_of(rec));
  arena_.reset();
  SpilledPairs pairs{
      ArenaVector<std::uint64_t>{ArenaAllocator<std::uint64_t>(arena_)},
      pair_sorter};
  tuple_sorter.drain([&](const Tuple& t) { feed_tuple(t, pairs); });
  finish_tuples(pairs);
  pair_sorter.drain(feed_key);
  finish_keys();
  spill_runs_ += tuple_sorter.spilled_runs() + pair_sorter.spilled_runs();
  spill_bytes_ += tuple_sorter.spilled_bytes() + pair_sorter.spilled_bytes();
}

void CdnAnalyzer::merge(CdnAnalyzer&& other) {
  for (auto& [asn, stats] : other.by_asn_) {
    auto [it, inserted] = by_asn_.try_emplace(asn, std::move(stats));
    if (!inserted) it->second.merge(stats);
  }
  for (auto& [cls, durations] : other.registry_durations_) {
    auto [it, inserted] = registry_durations_.try_emplace(
        cls, std::move(durations));
    if (!inserted)
      it->second.insert(it->second.end(), durations.begin(), durations.end());
  }
  degrees_.insert(degrees_.end(), other.degrees_.begin(),
                  other.degrees_.end());
  for (auto& [cls, counts] : other.zero_counts_)
    zero_counts_[cls].merge(counts);
  for (int m = 0; m < 2; ++m) {
    single_24_64s_[m] += other.single_24_64s_[m];
    multi_24_64s_[m] += other.multi_24_64s_[m];
  }
  total_tuples_ += other.total_tuples_;
  total_mismatched_ += other.total_mismatched_;
  spill_runs_ += other.spill_runs_;
  spill_bytes_ += other.spill_bytes_;
}

CdnSnapshot CdnAnalyzer::snapshot() const {
  CdnSnapshot out;
  out.by_asn_ = by_asn_;
  out.registry_durations_ = registry_durations_;
  out.degrees_ = degrees_;
  out.zero_counts_ = zero_counts_;
  for (int m = 0; m < 2; ++m) {
    out.single_24_64s_[m] = single_24_64s_[m];
    out.multi_24_64s_[m] = multi_24_64s_[m];
  }
  out.total_tuples_ = total_tuples_;
  out.total_mismatched_ = total_mismatched_;
  return out;
}

double CdnAnalyzer::fraction_64s_with_single_24(bool mobile) const {
  std::uint64_t s = single_24_64s_[mobile];
  std::uint64_t m = multi_24_64s_[mobile];
  return (s + m) ? double(s) / double(s + m) : 0.0;
}

}  // namespace dynamips::core
