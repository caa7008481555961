// flatmap.h — a sorted-vector map with std::map's in-order iteration.
//
// The per-AS accumulators in core/ are keyed by small, mostly-static key
// sets (a few hundred ASNs) but are touched once per record. std::map pays
// a node allocation per key and chases pointers on every lookup; FlatMap
// stores the pairs contiguously and binary-searches them. Iteration visits
// keys in strictly increasing order — exactly like std::map — so CSV/JSON
// emission, checkpoint serialization, and the ordered shard reduction all
// produce byte-identical output when an analyzer swaps its map type.
//
// Deliberately a subset of std::map's interface (the parts the analyzers
// and their consumers use): operator[], at, find, count, contains,
// try_emplace, lower_bound, erase, clear, size, ordered iteration, and
// equality. Insertion is O(n) — fine for accumulator maps whose key set
// stops growing after the first few records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dynamips::stats {

template <class K, class V, class Compare = std::less<K>>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using key_compare = Compare;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  iterator lower_bound(const K& key) {
    return std::lower_bound(items_.begin(), items_.end(), key, KeyLess{});
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key, KeyLess{});
  }

  iterator find(const K& key) {
    iterator it = lower_bound(key);
    return it != end() && !Compare{}(key, it->first) ? it : end();
  }
  const_iterator find(const K& key) const {
    const_iterator it = lower_bound(key);
    return it != end() && !Compare{}(key, it->first) ? it : end();
  }

  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }
  bool contains(const K& key) const { return find(key) != end(); }

  V& at(const K& key) {
    iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }
  const V& at(const K& key) const {
    const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  V& operator[](const K& key) {
    iterator it = lower_bound(key);
    if (it == end() || Compare{}(key, it->first))
      it = items_.emplace(it, key, V{});
    return it->second;
  }

  /// Insert {key, V(args...)} unless the key exists (std::map semantics:
  /// args are not evaluated into a V on the existing-key path).
  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != end() && !Compare{}(key, it->first)) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  iterator erase(const_iterator it) { return items_.erase(it); }
  std::size_t erase(const K& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }

  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    return a.items_ == b.items_;
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& a, const K& b) const {
      return Compare{}(a.first, b);
    }
  };

  std::vector<value_type> items_;
};

}  // namespace dynamips::stats
