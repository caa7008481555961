// checkpoint.h — versioned, checksummed study checkpoints.
//
// A checkpoint is a binary snapshot of a mid-run study: the shard table
// (index ranges plus per-shard progress), one opaque blob per shard holding
// its analyzer and metrics-sink state, a snapshot of the process-wide
// metrics registry (counters of studies that already completed this
// process), and the supervisor's own `checkpoint.*` accounting. Simulator
// state is deliberately absent: per-item output is a pure function of
// (config, index) — the RNG streams are derived, not stepped — so progress
// indices plus analyzer state reconstruct the run exactly. A config
// fingerprint guards against resuming under different parameters.
//
// File layout (all integers little-endian):
//
//   "DYNCKPT1"                                    8-byte magic
//   u32 version                                   currently 1
//   u32 section_count
//   section*: u32 tag, u64 length, payload bytes, u32 crc32(payload)
//   u32 crc32(everything above)                   whole-file trailer
//
// Sections: one META (kind, fingerprint, item count, shard count), one SHRD
// per shard (begin, end, next, blob), optional REGS (registry snapshot),
// SUPV (supervisor sink), STRM (streaming-mode batch high-water mark: the
// consumed batch basenames in consumption order) and JRNL (streaming mode:
// the journal's committed length, then each segment's length and CRC32).
// Every section carries its own CRC32 and the file a whole-file CRC, so a
// single flipped bit or a truncated tail is detected and rejected with a
// descriptive Status — never a crash or a silently wrong resume.
//
// Stream checkpoints come in two files. The records live in an append-only
// journal, `path.journal`: one DYNCOL1 batch (io/columnar.h) per consumed
// batch file, each written at the committed length and fsynced before the
// manifest that commits it. `path` itself is a small manifest — consumed
// list, segment table, accounting — so a checkpoint costs one batch's
// segment plus a few KB, however long the stream has run. Bytes past the
// committed length are a torn append (a crash mid-write): the next append
// overwrites them and a resume never reads them. The manifest's JRNL CRCs
// cover every committed byte, so a flipped bit in the journal is kDataLoss
// naming its segment.
//
// Durability: write_checkpoint() goes through tmp + rename and retains the
// previous checkpoint as `path.prev` until the new one is in place;
// read_checkpoint_with_fallback() falls back to `.prev` when the primary is
// missing or damaged. Both manifest generations share one journal: `.prev`
// commits a prefix of what `path` commits. A stream appends each segment
// through one descriptor (write at the committed length, cut, fsync) and
// publishes a snapshot that includes a batch only after that batch's
// manifest is durable; the commit may run on a writer thread while the
// batch is analyzed, but a failed commit drops that analysis unpublished.
// A stream manifest holds no wall-clock value (its accounting omits the
// `checkpoint.write` timings and the `stream.lag_seconds` gauge), so two
// streams over the same batches write it byte for byte.
//
// Retention: publishing renames the current checkpoint over any existing
// `path.prev`, so repeated writes keep exactly the last two generations —
// `path` and `path.prev` — no matter how long a streaming run checkpoints
// after every batch. Nothing else accumulates (`path.tmp` exists only
// mid-write; a stream adds only its one `path.journal`).
//
// The byte codec (Writer/Reader) is header-only on purpose, and so is the
// archive built on it: every checkpointed type in core/, stats/ and obs/
// lists its wire layout once, as a member template
//
//   template <class Ar> void fields(Ar& ar) { ar(a, b, c); }
//
// which a Writer runs to append the fields and a Reader runs to replace
// them, without those libraries linking dynamips_io. ckpt::save() and
// ckpt::load() are the entry points.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/status.h"

namespace dynamips::io {

namespace ckpt {

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven. Eight tables:
/// table[0] is the classic byte-at-a-time table; the other seven extend it
/// so crc32() can use the slicing-by-8 formulation, which processes 8
/// input bytes per iteration and runs ~5x faster over the multi-hundred-MB
/// columnar batches whose every payload byte is CRC-covered. Same
/// polynomial, same values as the bytewise loop — only the traversal order
/// changes. The one CRC32 of the checkpoint and DYNCOL1 containers.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian loads from raw bytes: byte-order portable, and every
/// mainstream compiler folds them into a single load on LE targets.
inline std::uint32_t load_le32(const char* p) {
  return std::uint32_t(std::uint8_t(p[0])) |
         std::uint32_t(std::uint8_t(p[1])) << 8 |
         std::uint32_t(std::uint8_t(p[2])) << 16 |
         std::uint32_t(std::uint8_t(p[3])) << 24;
}

inline std::uint64_t load_le64(const char* p) {
  return std::uint64_t(load_le32(p)) | std::uint64_t(load_le32(p + 4)) << 32;
}

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  const auto& t = crc32_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c ^= lo;
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n; --n, ++p)
    c = t[0][(c ^ std::uint8_t(*p)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// a(x) * b(x) modulo the CRC polynomial, both reflected. `a` must not be
/// 0 (every power of x mod the polynomial is non-zero).
constexpr std::uint32_t crc32_multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) return p;
    }
    m >>= 1;
    b = (b & 1) ? 0xEDB88320u ^ (b >> 1) : b >> 1;
  }
}

/// crc32(A + B) from crc32(A), crc32(B) and B's length, without the bytes:
/// crc(A) times x^(8 * len_b), plus crc(B), modulo the polynomial (zlib's
/// x^(2^k) table method). The DYNCOL1 encoder CRCs each column slice on the
/// thread that wrote it and combines the slices into the column's and the
/// batch's CRC, so no byte is CRC'd twice.
inline std::uint32_t crc32_combine(std::uint32_t a, std::uint32_t b,
                                   std::uint64_t len_b) {
  // x2n[k] = x^(2^k) mod P. The order of x divides 2^32 - 1, so k wraps
  // at 32.
  static const std::array<std::uint32_t, 32> x2n = [] {
    std::array<std::uint32_t, 32> t{};
    std::uint32_t p = 1u << 30;  // x^1
    t[0] = p;
    for (std::size_t k = 1; k < 32; ++k) t[k] = p = crc32_multmodp(p, p);
    return t;
  }();
  std::uint32_t p = 1u << 31;  // x^0; len_b bytes are 8 * len_b bits
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k)
    if (len_b & 1) p = crc32_multmodp(x2n[k & 31], p);
  return crc32_multmodp(p, a) ^ b;
}

/// Four-character section/column tag of the DYNCKPT1 and DYNCOL1
/// containers, stored little-endian (the file holds the characters in
/// order).
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return std::uint32_t(std::uint8_t(a)) | std::uint32_t(std::uint8_t(b)) << 8 |
         std::uint32_t(std::uint8_t(c)) << 16 |
         std::uint32_t(std::uint8_t(d)) << 24;
}

/// A tag's four characters for error messages; non-printable bytes as '?'.
inline std::string fourcc_name(std::uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    char c = char((tag >> (8 * i)) & 0xFF);
    name[std::size_t(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return name;
}

/// FNV-1a over a byte string — the config-fingerprint hash.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// --- the archive ---------------------------------------------------------
//
// Writer::operator() and Reader::operator() take any number of fields and
// encode them in order, by kind:
//
//   integers        little-endian, as wide as the C++ type (1, 4 or 8 bytes)
//   double          its IEEE-754 bits, so values round-trip bit-exact
//   bool            one byte, 0 or 1
//   enum            one byte, at most `enum_max(E{})` (declared next to the
//                   enum and found by argument-dependent lookup)
//   std::string     u64 length, then the bytes
//   std::array      its elements, no length prefix
//   std::vector     u64 count, then the elements
//   FlatMap, map    u64 count, then key/value pairs in strictly increasing
//                   key order
//   std::pair       first, then second
//   anything else   its `fields(ar)` member
//
// Loads are canonical: a bool byte other than 0/1, an enum byte above the
// maximum, a map key not above its predecessor, or a failed
// `ar.require(cond)` (the checks a type adds after its fields) fails the
// Reader. So any load that succeeds re-saves to exactly the bytes it read.

namespace detail {

template <class T>
inline constexpr bool is_array = false;
template <class T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;

template <class T>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool is_pair = false;
template <class A, class B>
inline constexpr bool is_pair<std::pair<A, B>> = true;

template <class T>
concept MapLike = requires {
  typename T::key_type;
  typename T::mapped_type;
  typename T::key_compare;
};

template <class T>
concept Integer = std::is_integral_v<T> && !std::is_same_v<T, bool>;

/// An enum's largest valid value as a byte; a one-byte encoding must hold it.
template <class E>
constexpr std::uint8_t enum_limit() {
  constexpr auto max = std::uint64_t(enum_max(E{}));
  static_assert(max <= 0xFF, "checkpointed enums are encoded in one byte");
  return std::uint8_t(max);
}

}  // namespace detail

/// Append-only little-endian byte encoder. Doubles are stored bit-exact
/// through their IEEE-754 representation, which is what makes a resumed
/// run byte-identical to a straight one.
class Writer {
 public:
  /// Append each field (the archive; see above).
  template <class... Ts>
  void operator()(const Ts&... xs) {
    (put(xs), ...);
  }
  /// A type's post-load checks (Reader::require) have nothing to check
  /// when saving.
  void require(bool) {}

  void u8(std::uint8_t v) { buf_.push_back(char(v)); }
  void u32(std::uint32_t v) { little_endian<4>(v); }
  void u64(std::uint64_t v) { little_endian<8>(v); }
  void i32(std::int32_t v) { u32(std::uint32_t(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    raw(s);
  }
  /// Bytes as they are, without a length prefix.
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      u8(x ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      u8(std::uint8_t(x));
    } else if constexpr (detail::Integer<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      little_endian<sizeof(T)>(std::uint64_t(x));
    } else if constexpr (std::is_same_v<T, double>) {
      f64(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(x);
    } else if constexpr (detail::is_array<T>) {
      for (const auto& e : x) put(e);
    } else if constexpr (detail::is_pair<T>) {
      put(x.first);
      put(x.second);
    } else if constexpr (detail::is_vector<T> || detail::MapLike<T>) {
      u64(x.size());
      for (const auto& e : x) put(e);
    } else {
      // fields() is one template for both directions, hence non-const;
      // a Writer only reads through it.
      const_cast<T&>(x).fields(*this);
    }
  }

  /// One append per integer rather than one push_back per byte: the
  /// serialization loops (shard blobs carry whole analyzer states) stay
  /// fast however the compiler inlines them.
  template <int N>
  void little_endian(std::uint64_t v) {
    char bytes[N];
    for (int i = 0; i < N; ++i) bytes[i] = char((v >> (8 * i)) & 0xFF);
    buf_.append(bytes, N);
  }

  std::string buf_;
};

/// Bounds-checked decoder with a sticky failure flag: the first
/// out-of-bounds read fails the reader, every later read returns zero, and
/// callers check ok() once at the end instead of after every field.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : buf_(bytes) {}

  /// Replace each field with the next encoded value (the archive; see
  /// above).
  template <class... Ts>
  void operator()(Ts&... xs) {
    (get(xs), ...);
  }
  /// Fail the reader unless `cond` holds: a type's consistency check over
  /// the fields it just loaded.
  void require(bool cond) {
    if (!cond) fail_ = true;
  }

  bool ok() const { return !fail_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return std::uint8_t(buf_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    pos_ += 4;
    return load_le32(buf_.data() + pos_ - 4);
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    pos_ += 8;
    return load_le64(buf_.data() + pos_ - 8);
  }
  std::int32_t i32() { return std::int32_t(u32()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    std::uint64_t n = u64();
    if (!need(n)) return {};
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Read an element count and reject counts that could not possibly fit
  /// in the remaining bytes (every element encodes at least one byte), so
  /// a corrupted length can never drive a multi-gigabyte allocation loop.
  std::uint64_t size() {
    std::uint64_t n = u64();
    if (n > remaining()) {
      fail_ = true;
      return 0;
    }
    return n;
  }

 private:
  template <class T>
  void get(T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = u8();
      require(b <= 1);
      x = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::uint8_t v = u8();
      require(v <= detail::enum_limit<T>());
      x = T(v);
    } else if constexpr (detail::Integer<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) x = T(u8());
      if constexpr (sizeof(T) == 4) x = T(u32());
      if constexpr (sizeof(T) == 8) x = T(u64());
    } else if constexpr (std::is_same_v<T, double>) {
      x = f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = str();
    } else if constexpr (detail::is_array<T>) {
      for (auto& e : x) get(e);
    } else if constexpr (detail::is_pair<T>) {
      get(x.first);
      get(x.second);
    } else if constexpr (detail::is_vector<T>) {
      x.clear();
      std::uint64_t n = size();
      x.reserve(n);
      for (std::uint64_t i = 0; i < n && ok(); ++i) get(x.emplace_back());
    } else if constexpr (detail::MapLike<T>) {
      x.clear();
      std::uint64_t n = size();
      for (std::uint64_t i = 0; i < n && ok(); ++i) {
        typename T::key_type key{};
        get(key);
        require(x.empty() ||
                typename T::key_compare{}(std::prev(x.end())->first, key));
        if (!ok()) return;
        get(x[key]);
      }
    } else {
      x.fields(*this);
    }
  }

  bool need(std::uint64_t n) {
    if (fail_ || n > remaining()) {
      fail_ = true;
      return false;
    }
    return true;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

/// Append the fields of each of `xs` to `w`.
template <class... Ts>
void save(Writer& w, const Ts&... xs) {
  w(xs...);
}

/// Replace each of `xs` with the fields read from `r`. False when the bytes
/// ran out or a load check failed; the objects are then partly loaded and
/// must be discarded.
template <class... Ts>
bool load(Reader& r, Ts&... xs) {
  r(xs...);
  return r.ok();
}

}  // namespace ckpt

/// Bump when the container layout or any type's `fields` layout changes;
/// readers reject every other version with a descriptive Status.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Which study (and which data path) wrote the checkpoint. Resume validates
/// the kind before touching any blob.
inline constexpr std::uint32_t kCkptAtlasGen = 1;
inline constexpr std::uint32_t kCkptCdnGen = 2;
inline constexpr std::uint32_t kCkptAtlasFile = 3;
inline constexpr std::uint32_t kCkptCdnFile = 4;
/// Stream kinds carry their own format version: these are version 2, a
/// manifest plus a journal. Version 1 (kinds 5 and 6) held the whole
/// accumulated dataset inline; decode_checkpoint() refuses it with
/// kFailedPrecondition. The one-shot kinds are unaffected.
inline constexpr std::uint32_t kCkptAtlasStream = 7;
inline constexpr std::uint32_t kCkptCdnStream = 8;
inline constexpr std::uint32_t kCkptAtlasStreamV1 = 5;
inline constexpr std::uint32_t kCkptCdnStreamV1 = 6;

inline bool is_atlas_checkpoint_kind(std::uint32_t kind) {
  return kind == kCkptAtlasGen || kind == kCkptAtlasFile ||
         kind == kCkptAtlasStream;
}
inline bool is_cdn_checkpoint_kind(std::uint32_t kind) {
  return kind == kCkptCdnGen || kind == kCkptCdnFile ||
         kind == kCkptCdnStream;
}
inline bool is_stream_checkpoint_kind(std::uint32_t kind) {
  return kind == kCkptAtlasStream || kind == kCkptCdnStream;
}

/// Printable kind label for error messages.
const char* checkpoint_kind_name(std::uint32_t kind);

/// One shard's entry: its index range, the next unprocessed index, and the
/// serialized analyzer + metrics-sink state covering [begin, next).
struct CheckpointShard {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t next = 0;
  std::string blob;
};

/// One committed journal segment: a consumed batch's DYNCOL1 bytes.
struct JournalSegment {
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  friend bool operator==(const JournalSegment&,
                         const JournalSegment&) = default;
};

/// A full mid-run snapshot of one study.
struct StudyCheckpoint {
  std::uint32_t kind = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t item_count = 0;
  std::vector<CheckpointShard> shards;
  /// obs::MetricsSink snapshot of the process-wide registry at save time
  /// (counters of studies that already completed); empty when metrics off.
  std::string registry_blob;
  /// The supervisor's own sink (`checkpoint.*` counters/timers).
  std::string supervisor_blob;
  /// Streaming mode only: the batch high-water mark — basenames of every
  /// ingested batch file, in consumption order. A resumed stream skips
  /// these and replays only batches not yet consumed. Empty (and absent
  /// from the file) for the one-shot study kinds.
  std::vector<std::string> consumed;
  /// Streaming mode only: the journal segments this manifest commits, one
  /// per consumed batch, in order.
  std::vector<JournalSegment> journal;
  /// Where those segments live; not serialized. read_checkpoint() sets it
  /// to journal_path() of the file it read.
  std::string journal_path;

  std::uint64_t items_done() const {
    std::uint64_t done = 0;
    for (const auto& s : shards) done += s.next - s.begin;
    return done;
  }
  /// The journal's committed length: the sum of the segment lengths.
  std::uint64_t journal_length() const {
    std::uint64_t length = 0;
    for (const auto& s : journal) length += s.length;
    return length;
  }
};

/// Serialize to the container layout (no I/O).
std::string encode_checkpoint(const StudyCheckpoint& ckpt);

/// Parse and fully validate a container: magic, version, per-section CRCs,
/// whole-file CRC, shard-table consistency. Corruption comes back as
/// kDataLoss, version skew as kFailedPrecondition.
core::Expected<StudyCheckpoint> decode_checkpoint(std::string_view bytes);

/// Atomically write `ckpt` to `path` (tmp + rename). With `keep_previous`
/// (the default) an existing checkpoint is retained as `path.prev` until
/// the new one is durable — keep-last-2 retention. Passing false drops
/// retention to keep-last-1 (the resource governor does this under disk
/// pressure): the write itself is still atomic, and any existing `.prev`
/// is removed once the new generation is in place.
core::Status write_checkpoint(const std::string& path,
                              const StudyCheckpoint& ckpt,
                              bool keep_previous = true);

/// Read and validate the checkpoint at `path`.
core::Expected<StudyCheckpoint> read_checkpoint(const std::string& path);

/// Read `path`; when it is missing or damaged, fall back to `path.prev`.
/// On success `used_path` (if non-null) reports which file was loaded; on
/// failure the Status describes both attempts.
core::Expected<StudyCheckpoint> read_checkpoint_with_fallback(
    const std::string& path, std::string* used_path = nullptr);

/// Remove `path`, `path.prev`, `path.tmp` and `path.journal` (end-of-run
/// cleanup).
void remove_checkpoint_files(const std::string& path);

// --- stream journals --------------------------------------------------------

/// The journal of the manifest at `path`: `path.journal`. `path.prev`
/// shares it, so a `.prev` suffix is dropped first.
std::string journal_path(const std::string& path);

/// Commit a stream checkpoint at `path`. A non-empty `segment` (the DYNCOL1
/// bytes of the batch consumed since the last commit, whose crc32() is
/// `segment_crc`, as the encoder returns them) is first written into the
/// journal at `ckpt`'s committed length, cutting off anything past it,
/// fsynced, and added to `ckpt.journal`; then the manifest is written as by
/// write_checkpoint(). On failure `ckpt.journal` is left as it was, so a
/// retry writes the segment at the same offset over whatever was torn.
core::Status commit_stream_checkpoint(const std::string& path,
                                      StudyCheckpoint& ckpt,
                                      std::string_view segment,
                                      std::uint32_t segment_crc,
                                      bool keep_previous = true);

/// Read the segments `ckpt` commits from `ckpt.journal_path`, in order,
/// checking each one's CRC, and hand segment i to `visit(i, bytes)`. Bytes
/// past the committed length are never read. A journal too short for its
/// manifest or a CRC mismatch is kDataLoss naming the segment; an error
/// `visit` returns stops the read and comes back as is.
core::Status read_journal(
    const StudyCheckpoint& ckpt,
    const std::function<core::Status(std::size_t, std::string_view)>& visit);

/// Make the journal of the stream checkpoint at `path` hold exactly the
/// segments `from` commits (none when `from` is null: a fresh stream). A
/// stale journal is emptied, a torn tail past the committed length is cut
/// off, and segments committed in another file's journal are copied in.
core::Status init_journal(const std::string& path,
                          const StudyCheckpoint* from);

/// Combine the completed per-process checkpoints of a sharded run
/// (`dynamips_study --shard i/N` writes one each) into a single resumable
/// checkpoint — the multi-process merge step. Validates that every input
/// has the same kind, config fingerprint and item count, that every shard
/// is complete (next == end), that no input carries stream state, and
/// that the union of shard ranges tiles [0, item_count) with no gap or
/// overlap. Shards are ordered by begin index in the result, so a resume
/// from it reduces in index order — byte-identical to a single-process
/// run. Registry and supervisor blobs are per-process diagnostics and are
/// dropped (they never influence results).
core::Expected<StudyCheckpoint> combine_shard_checkpoints(
    const std::vector<std::string>& paths);

}  // namespace dynamips::io
