#include "core/assoc.h"

#include <algorithm>

#include "stats/extsort.h"

namespace dynamips::core {

namespace {

/// One accepted association tuple, flattened for the /64 grouping sort.
struct Tuple {
  std::uint64_t net64;
  std::uint32_t day;
  net::Prefix4 v4;
};

struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.net64 < b.net64;
  }
};

/// (/24, /64) incidence pair for the per-/24 degree count.
struct Pair {
  net::Prefix4 v4;
  std::uint64_t net64;
};

struct PairLess {
  bool operator()(const Pair& a, const Pair& b) const {
    if (a.v4 != b.v4) return a.v4 < b.v4;
    return a.net64 < b.net64;
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
  // sequences — fed either from an in-memory stable sort (the default) or
  // from an external-merge drain (spill_mb > 0). Both orders are
  // identical by the sorter's stability contract, so both paths produce
  // byte-identical analyzer state.
  //
  // Consumer 1: tuples sorted by /64. Segments association runs (same /24,
  // gaps no longer than max_gap_days) and tallies the /64-level stats.
  bool in_group = false;
  bool multi_24 = false;
  std::uint64_t cur_net64 = 0;
  std::uint32_t run_start = 0;
  std::uint32_t run_last = 0;
  net::Prefix4 run_24;
  auto close_run = [&] {
    double days = double(run_last - run_start + 1);
    asn_stats.durations_days.push_back(days);
    reg_durations.push_back(days);
  };
  auto close_group = [&] {
    close_run();
    if (multi_24) {
      ++multi_24_64s_[mobile];
    } else {
      ++single_24_64s_[mobile];
    }
  };
  auto feed_tuple = [&](const Tuple& t) {
    if (!in_group || t.net64 != cur_net64) {
      if (in_group) close_group();
      in_group = true;
      cur_net64 = t.net64;
      ++asn_stats.unique_64s;
      zeros.add(classify_trailing_zeros(t.net64));
      multi_24 = false;
      run_start = run_last = t.day;
      run_24 = t.v4;
      return;
    }
    multi_24 |= t.v4 != run_24;
    bool gap = t.day > run_last + options_.max_gap_days;
    if (t.v4 != run_24 || gap) {
      close_run();
      run_start = t.day;
      run_24 = t.v4;
    }
    run_last = t.day;
  };
  auto finish_tuples = [&] {
    if (in_group) close_group();
  };

  // Consumer 2: (v4, net64) pairs in sorted order. Skips exact repeats and
  // counts unique /64s per /24.
  bool have_pair = false;
  Pair prev_pair{};
  std::uint32_t degree = 0;
  auto feed_pair = [&](const Pair& p) {
    if (have_pair && p.v4 == prev_pair.v4 && p.net64 == prev_pair.net64)
      return;
    if (have_pair && p.v4 != prev_pair.v4) {
      degrees_.emplace_back(degree, mobile);
      degree = 0;
    }
    have_pair = true;
    prev_pair = p;
    ++degree;
  };
  auto finish_pairs = [&] {
    if (have_pair) degrees_.emplace_back(degree, mobile);
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

  if (options_.spill_mb == 0) {
    // In-memory path: flatten the accepted tuples once, then group by /64
    // with a single stable sort. Compared to a hash-map-of-vectors this
    // does no per-/64 node allocation (the dominant cost on the sharded
    // path) and iterates groups in a canonical order, independent of any
    // container history. Both scratch vectors live in the per-shard arena:
    // after the first few logs the steady state allocates nothing per
    // call.
    arena_.reset();
    ArenaVector<Tuple> tuples{ArenaAllocator<Tuple>(arena_)};
    tuples.reserve(log.records.size());
    for (const auto& rec : log.records) {
      if (!accept(rec)) continue;
      tuples.push_back({rec.v6_64.address().network64(), rec.day, rec.v4_24});
    }
    // Stable: records arrive day-sorted per log; keep that order per /64.
    std::stable_sort(tuples.begin(), tuples.end(), TupleLess{});
    for (const Tuple& t : tuples) feed_tuple(t);
    finish_tuples();

    ArenaVector<Pair> pairs{ArenaAllocator<Pair>(arena_)};
    pairs.reserve(tuples.size());
    for (const Tuple& t : tuples) pairs.push_back({t.v4, t.net64});
    std::sort(pairs.begin(), pairs.end(), PairLess{});
    for (const Pair& p : pairs) feed_pair(p);
    finish_pairs();
    return;
  }

  // Out-of-core path: the same sorts through the external merge, working
  // set bounded by spill_mb per shard. The budget is split between the two
  // live sorters (the pair sorter fills while the tuple sorter drains).
  stats::ExternalSorter<Tuple, TupleLess>::Options topt;
  topt.budget_bytes = options_.spill_mb * 1024 * 1024 / 2;
  topt.spill_dir = options_.spill_dir;
  stats::ExternalSorter<Pair, PairLess>::Options popt;
  popt.budget_bytes = topt.budget_bytes;
  popt.spill_dir = options_.spill_dir;

  stats::ExternalSorter<Tuple, TupleLess> tuple_sorter(topt);
  stats::ExternalSorter<Pair, PairLess> pair_sorter(popt);
  for (const auto& rec : log.records) {
    if (!accept(rec)) continue;
    tuple_sorter.push(
        {rec.v6_64.address().network64(), rec.day, rec.v4_24});
  }
  tuple_sorter.drain([&](const Tuple& t) {
    feed_tuple(t);
    pair_sorter.push({t.v4, t.net64});
  });
  finish_tuples();
  pair_sorter.drain(feed_pair);
  finish_pairs();
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
