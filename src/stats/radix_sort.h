// radix_sort.h — stable LSD radix sort on a 64-bit key, 16 bits per pass.
//
// CdnAnalyzer::add_log groups each log's tuples by /64 and then counts
// unique /64s per /24; both are sorts on an integer key, which a radix
// pass does in linear time instead of a comparison sort's n log n. Each
// pass scatters by one 16-bit digit of the key, least significant first;
// a digit that every key shares would be an identity pass, so it is
// skipped (a generated log's /64s share their top 16 bits: three passes;
// its /24 keys share the lowest digit, length and zero host byte, and the
// top one: two passes). LSD passes are stable, so equal keys keep their
// input order: the result equals one std::stable_sort by key.
//
// The caller owns all memory: `scratch` (room for n elements) is the
// ping-pong buffer and `counts` (kRadixCounts entries) the per-digit
// histograms, so a caller with a per-shard arena sorts without touching
// the heap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace dynamips::stats {

inline constexpr unsigned kRadixDigitBits = 16;
inline constexpr unsigned kRadixDigits = 64 / kRadixDigitBits;
inline constexpr std::size_t kRadixBuckets = std::size_t(1) << kRadixDigitBits;
/// Histogram entries radix_sort needs: one histogram per digit.
inline constexpr std::size_t kRadixCounts = kRadixDigits * kRadixBuckets;

/// Stably sort data[0, n) by key(element), a std::uint64_t, with
/// `scratch` (room for n elements) as the ping-pong buffer and `counts`
/// (kRadixCounts entries) as the histograms. Returns whichever of `data`
/// and `scratch` holds the sorted sequence; the other one's contents are
/// unspecified.
template <class T, class Key>
T* radix_sort(T* data, T* scratch, std::size_t n, Key key,
              std::size_t* counts) {
  if (n < 2) return data;
  constexpr std::uint64_t kMask = kRadixBuckets - 1;
  // One read pass counts every digit at once and finds the shared ones.
  std::fill_n(counts, kRadixCounts, std::size_t(0));
  std::uint64_t all_or = 0;
  std::uint64_t all_and = ~std::uint64_t(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(data[i]);
    all_or |= k;
    all_and &= k;
    for (unsigned d = 0; d < kRadixDigits; ++d)
      ++counts[d * kRadixBuckets + ((k >> (d * kRadixDigitBits)) & kMask)];
  }
  // A bit is set here iff some two keys differ in it.
  const std::uint64_t varying = all_or ^ all_and;
  T* src = data;
  T* dst = scratch;
  for (unsigned d = 0; d < kRadixDigits; ++d) {
    const unsigned shift = d * kRadixDigitBits;
    if (((varying >> shift) & kMask) == 0) continue;
    std::size_t* offsets = counts + d * kRadixBuckets;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < kRadixBuckets; ++b)
      offset += std::exchange(offsets[b], offset);
    for (std::size_t i = 0; i < n; ++i)
      dst[offsets[(key(src[i]) >> shift) & kMask]++] = src[i];
    std::swap(src, dst);
  }
  return src;
}

}  // namespace dynamips::stats
