// snapshot_store.h — RCU-style publication point for finalized studies.
//
// The looking-glass read path (src/lg/service.h) never locks against the
// pipeline's work: the stream's re-finalization callback builds an
// immutable snapshot off to the side and publish()es it by swapping one
// pointer. Readers get() a shared_ptr to whichever generation was current
// at that instant and keep it alive for the duration of their request, so
// a response is always assembled from exactly one generation — there is no
// window in which a reader can observe half of an old snapshot and half of
// a new one, and a publish never waits for readers to drain (the old
// generation is freed by the last shared_ptr that drops it).
//
// A mutex guards only the pointer copy, a critical section of a few
// instructions. It stands in for std::atomic<std::shared_ptr>: libstdc++
// 12's version reads the pointer under its lock bit and then drops the bit
// with a relaxed RMW, so the read does not happen-before the next
// publish's write, which ThreadSanitizer reports as a data race.
#pragma once

#include <memory>
#include <mutex>

namespace dynamips::lg {

template <typename T>
class SnapshotStore {
 public:
  /// The current snapshot, or null when nothing has been published yet.
  /// Safe to call from any number of threads concurrently with publish().
  std::shared_ptr<const T> get() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ptr_;
  }

  /// Swap in a new generation. The previous one stays alive until the last
  /// reader holding it lets go; publish() itself never blocks on readers.
  void publish(std::shared_ptr<const T> next) {
    std::lock_guard<std::mutex> lk(mu_);
    ptr_.swap(next);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> ptr_;
};

}  // namespace dynamips::lg
