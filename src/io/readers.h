// readers.h — the dataset CSV codec: fault-tolerant streaming readers and
// the matching writers.
//
// Echo schema:   probe_id,hour,family,x_client_ip,src_addr
// Assoc schema:  day,v4_24,v6_64,asn4,asn6
//
// Real exports (six years of Atlas echo records, billions of CDN tuples)
// always carry some damaged lines, so these readers recover per record
// instead of per file:
//
//  * every malformed line is CLASSIFIED (oversize line, bad field count,
//    unparsable number, unparsable address, out-of-range hour/day,
//    duplicate), counted into per-reason `ingest.reject.<reason>` metrics,
//    and optionally appended with its 1-based line number to a quarantine
//    sink for offline inspection;
//  * rejection is bounded by an ERROR BUDGET: more than
//    `max_consecutive_rejects` back-to-back bad lines, or a final reject
//    fraction above `max_reject_fraction`, turns the load into a
//    `core::Status` failure carrying the first few offending lines — a
//    mostly-broken file fails loudly instead of yielding a quietly empty
//    dataset;
//  * reading is BOUNDS-HARDENED: the stream is read in windows of
//    kCsvWindowBytes, and a line carried into the next window is kept only
//    up to max_line_bytes + 1 bytes (an unterminated gigabyte "line" is
//    rejected with its head, then skipped to its '\n', not buffered), field
//    splitting is capped (csv.h), and CRLF line endings / a UTF-8 BOM on
//    the first line are tolerated.
//
// Windows and replay: CsvReader finds a window's complete lines with
// memchr and cuts them into line-aligned ranges, a few per thread of the
// ShardExecutor it is given (one range without one, or for a small
// window). Each range classifies its lines on its own: blank, oversize,
// meta, header, or a data line split and parsed into a record or a reject
// reason. Nothing a range does depends on another range or on earlier
// lines. next() then replays the window's lines in order through one
// RejectLedger and one DatasetBuilder: the `readers.line` failpoint (one
// hit per line fetched, and one at the end of input), meta lines and tag
// interning, headers, the duplicate rule, rejects, quarantine writes and
// the `ingest.*` counters. Replay stops where the consecutive-reject cap
// trips, and the lines parsed past it are never seen. The stats, the
// dataset, the quarantine bytes, the counters and the Status are
// therefore those of a line-by-line loop, at every thread count. A stream
// that fails mid-read keeps the complete lines before the failure and
// fails at the line it could not finish. Memory is the window buffer and
// its outcome arrays (a 24-byte entry per line, a record per data line),
// all reused from window to window.
//
// Besides the schema lines, optional '#'-prefixed metadata lines let
// datasets survive a round trip through CSV:
//   #probe,<id>            declares a probe (keeps empty histories alive)
//   #tags,<id>,t1;t2       Atlas probe tags (the sanitizer filters on them)
//   #log,<asn>             declares a CDN association log
// Unknown '#' lines are skipped. Repeated header lines are tolerated, so
// concatenating exports (`cat a.csv b.csv`) is a valid dataset.
//
// How records become a dataset — grouping, tags, duplicates, time order —
// is one rule per schema, detail::DatasetBuilder below. The CSV readers,
// the DYNCOL1 decoders (columnar.h) and merge_*_datasets all assemble
// through it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "atlas/echo.h"
#include "cdn/rum.h"
#include "core/status.h"
#include "obs/metrics.h"

namespace dynamips::core {
class ShardExecutor;
}

namespace dynamips::io {

/// Why one line was rejected. Names (reject_reason_name) double as the
/// metric suffix: `ingest.reject.bad_address` etc.
enum class RejectReason : std::uint8_t {
  kOversizeLine = 0,  ///< longer than ReaderOptions::max_line_bytes
  kBadFieldCount,     ///< wrong number of CSV fields (or oversplit)
  kBadNumber,         ///< unparsable id / hour / day / asn / family field
  kBadAddress,        ///< unparsable IPv4/IPv6 address or prefix
  kOutOfRange,        ///< hour/day beyond the configured plausibility cap
  kDuplicate,         ///< repeats an already-accepted record
};
inline constexpr std::size_t kRejectReasonCount = 6;

std::string_view reject_reason_name(RejectReason reason);

/// One rejected line, as kept for Status messages and tests.
struct RejectedLine {
  std::uint64_t line_number = 0;  ///< 1-based physical line in the stream
  RejectReason reason = RejectReason::kBadFieldCount;
  std::string text;  ///< truncated to kKeepTextBytes

  bool operator==(const RejectedLine&) const = default;
};

/// How many offending lines a load keeps verbatim for its failure Status.
inline constexpr std::size_t kKeepFirstRejects = 5;
/// Bytes of each offending line kept and quarantined.
inline constexpr std::size_t kKeepTextBytes = 160;

struct ReaderOptions {
  /// Lines longer than this are rejected as kOversizeLine without ever
  /// being buffered whole (the reader skips to the next newline).
  std::size_t max_line_bytes = 4096;

  // --- error budget -----------------------------------------------------
  /// Maximum tolerated reject share of data lines, evaluated at finish():
  /// strictly more than `max_reject_fraction * data_lines` rejects fails
  /// the load (a load exactly at the budget passes).
  double max_reject_fraction = 0.01;
  /// Strictly more than this many back-to-back rejects aborts the load
  /// immediately (fail-fast on a file that is garbage from some offset).
  std::uint64_t max_consecutive_rejects = 100;

  // --- plausibility caps ------------------------------------------------
  /// Echo records with hour above this are kOutOfRange (~23 years).
  std::uint64_t max_hour = 200000;
  /// Association records with day above this are kOutOfRange (~100 years).
  std::uint32_t max_day = 36500;
  /// Reject an assoc record whose five schema fields equal those of the
  /// immediately preceding accepted record (kDuplicate). Fields compare as
  /// parsed values, so `01` and `1`, or two spellings of one prefix, are
  /// the same record in CSV and in DYNCOL1 alike. Off by default: repeated
  /// tuples are legitimate hit-weight multiplicity in our exports. Turn on
  /// for datasets aggregated to unique (v4_24, v6_64, day) tuples, where an
  /// adjacent repeat is the signature of a duplicated export row.
  bool assoc_dedup_adjacent = false;

  // --- reporting --------------------------------------------------------
  /// When non-null, every rejected line is appended as
  /// "<source>,<line_number>,<reason>,<text>" (source may be empty).
  std::ostream* quarantine = nullptr;
  /// Disk-pressure valve (core/resource.h): suppress quarantine appends
  /// while keeping every reject counted — the shed volume lands in
  /// IngestStats::quarantine_shed and `ingest.quarantine_shed`, so the
  /// degradation is observable, never silent.
  bool shed_quarantine = false;
  /// First quarantine column, typically the input file name.
  std::string source_label;
  /// When non-null, ingest.* counters are recorded here.
  obs::MetricsSink* metrics = nullptr;
};

/// Ingestion accounting for one or more reader passes.
struct IngestStats {
  std::uint64_t lines_seen = 0;     ///< physical lines, everything included
  std::uint64_t data_lines = 0;     ///< lines that were record candidates
  std::uint64_t records_accepted = 0;
  std::uint64_t headers_skipped = 0;
  std::uint64_t meta_lines = 0;     ///< '#' lines (incl. unknown comments)
  std::uint64_t blank_lines = 0;
  std::uint64_t quarantined = 0;
  /// Quarantine appends suppressed by ReaderOptions::shed_quarantine.
  std::uint64_t quarantine_shed = 0;
  /// Wall time the caller spent in the load phase (filled by the file-study
  /// entrypoints, summed across files). Pure diagnostics — lets tools report
  /// ingest-phase records/sec without a metrics registry; never affects
  /// results or fingerprints.
  std::uint64_t load_wall_ns = 0;
  std::array<std::uint64_t, kRejectReasonCount> rejects{};
  std::vector<RejectedLine> first_rejects;  ///< first kKeepFirstRejects

  std::uint64_t total_rejects() const {
    std::uint64_t total = 0;
    for (std::uint64_t r : rejects) total += r;
    return total;
  }
  std::uint64_t rejects_for(RejectReason reason) const {
    return rejects[std::size_t(reason)];
  }

  /// Aggregate another pass (e.g. a second input file).
  void merge(const IngestStats& other);

  bool operator==(const IngestStats&) const = default;

  /// One human-readable line, e.g.
  /// "1204 records, 7 rejected (3 bad_address, 4 duplicate), 7 quarantined".
  std::string summary() const;
};

namespace detail {

/// Reject classification, quarantine, and error-budget accounting — ONE
/// shared implementation for every ingest surface. The CSV readers feed it
/// per line (CsvReader below); the columnar readers (columnar.h)
/// feed it per decoded row. Both therefore count into the same
/// `ingest.reject.<reason>` metric names, trip the same
/// `max_consecutive_rejects` cap (strictly more than the cap of
/// back-to-back rejects fails immediately), and evaluate the same
/// `max_reject_fraction` budget at finish() — no divergent counters, no
/// second classification table. `unit` only flavors messages ("line" for
/// text streams, "record" for columnar batches).
class RejectLedger {
 public:
  RejectLedger(const ReaderOptions& options, std::string_view label,
               std::string_view unit);

  /// One physical unit consumed (line read / row visited).
  void count_unit() {
    ++stats_.lines_seen;
    if (lines_counter_) lines_counter_->add(1);
  }
  /// Mark the current unit as a record candidate (budget denominator).
  void count_data() { ++stats_.data_lines; }

  void reject(RejectReason reason, std::string_view text,
              std::uint64_t position);
  void accept() {
    ++stats_.records_accepted;
    consecutive_rejects_ = 0;
    if (accepted_counter_) accepted_counter_->add(1);
  }
  bool tripped() const { return !fatal_.ok(); }
  const core::Status& fatal() const { return fatal_; }
  /// Trip the ledger with an external failure (e.g. an injected IO error):
  /// tripped()/finish() report it exactly like a budget trip.
  void fail(core::Status status) { fatal_ = std::move(status); }

  /// Evaluate the end-of-input error budget; returns the fatal status if
  /// the ledger tripped mid-input.
  core::Status finish() const;

  IngestStats& stats() { return stats_; }
  const IngestStats& stats() const { return stats_; }
  const ReaderOptions& options() const { return options_; }

 private:
  std::string format_offenders() const;

  ReaderOptions options_;
  std::string label_;
  std::string unit_;
  IngestStats stats_;
  std::uint64_t consecutive_rejects_ = 0;
  core::Status fatal_;
  obs::Counter* lines_counter_ = nullptr;
  obs::Counter* accepted_counter_ = nullptr;
};

struct EchoSchema {
  using Item = atlas::ProbeSeries;
  using Record = atlas::EchoRecord;
  using Key = std::uint32_t;
  static Key& key(Item& series) { return series.meta.probe_id; }
  static Key key(const Record& rec) { return rec.probe_id; }
  static std::uint64_t time(const Record& rec) { return rec.hour; }
};

struct AssocSchema {
  using Item = cdn::AssociationLog;
  using Record = cdn::AssociationRecord;
  using Key = bgp::Asn;
  static Key& key(Item& log) { return log.asn; }
  /// The side the CDN attributes the /64 to.
  static Key key(const Record& rec) { return rec.asn6; }
  static std::uint64_t time(const Record& rec) { return rec.day; }
};

/// The dataset-assembly rule, one per schema. Every ingest path builds its
/// dataset through it, so none can drift from the others:
///  * items (probe series, association logs) keep the order of first
///    appearance, whether declared (`#probe`/`#tags`/`#log` lines, DYNCOL1
///    group headers) or implied by a record;
///  * a record belongs to the item of Schema::key — the probe id, or an
///    association record's asn6;
///  * first non-empty tags win;
///  * push() appends a record unless it is a duplicate: a second echo
///    record for one (probe, hour, family), or, with
///    ReaderOptions::assoc_dedup_adjacent, an assoc record equal to the
///    last one pushed. Echo checks it at the seam: each item keeps its
///    last admitted hour per family, and a record past it is admitted
///    with no lookup. The first record at or before it indexes that
///    item's records into an exact (hour << 1 | v6) set, which from then
///    on checks and records every later record of that item alone;
///  * the duplicate rule covers one builder's pushes, i.e. one file: a
///    builder either pushes (a reader or DYNCOL1 decoder) or folds in
///    datasets (merge_*_datasets, a stream's accumulator), and merge() and
///    absorb() keep every record, so a (probe, hour, family) in two files
///    or stream batches is kept twice;
///  * records absorbed into a known item are merged in at the seam: kept
///    as they are when they start at or after the item's last record,
///    otherwise stably merged (std::inplace_merge). The item they join is
///    in time order, as the readers return items, so this equals a stable
///    sort of the whole item at the cost of the absorbed records alone.
///    A merge moves records the item already had; rewrites() counts them
///    per item, so state folded from an item's records so far (a stream's
///    core::SanitizeFold) stays valid while its count does;
///  * take() restores time order (a stable sort, so same-time records
///    keep their arrival order) in the items a push put out of order; an
///    item taken whole stays as is.
template <class Schema>
class DatasetBuilder {
 public:
  using Item = typename Schema::Item;
  using Record = typename Schema::Record;
  using Key = typename Schema::Key;
  static constexpr bool kEcho = std::is_same_v<Schema, EchoSchema>;

  explicit DatasetBuilder(const ReaderOptions& options = {})
      : dedup_adjacent_(options.assoc_dedup_adjacent) {}
  /// Continue an existing dataset (merge_*_datasets).
  explicit DatasetBuilder(std::vector<Item>&& items)
      : items_(std::move(items)),
        unsorted_(items_.size(), 0),
        rewrites_(items_.size(), 0) {
    if constexpr (kEcho) seams_.resize(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i)
      index_.emplace(Schema::key(items_[i]), i);
  }

  /// The item for `key`, appended empty on first sight. The reference
  /// lasts until the next call that may append an item.
  Item& declare(Key key) { return items_[slot(key)]; }

  /// Declare `key`; it takes `tags` unless it already has some (echo).
  void offer_tags(Key key, std::vector<core::TagId>&& tags) {
    auto& have = declare(key).meta.tags;
    if (have.empty()) have = std::move(tags);
  }

  /// Index of the item for `key`, appended empty on first sight; caches
  /// the last one, since consecutive records usually share an item.
  std::size_t slot(Key key) {
    if (last_slot_ < items_.size() && Schema::key(items_[last_slot_]) == key)
      return last_slot_;
    auto [it, fresh] = index_.try_emplace(key, items_.size());
    if (fresh) {
      Schema::key(items_.emplace_back()) = key;
      unsorted_.push_back(0);
      rewrites_.push_back(0);
      if constexpr (kEcho) seams_.emplace_back();
    }
    return last_slot_ = it->second;
  }

  /// Append `rec` to its item, declaring the item; false, and nothing
  /// appended, when `rec` is a duplicate.
  bool push(const Record& rec) {
    const std::size_t at = slot(Schema::key(rec));
    if constexpr (!kEcho) {
      if (dedup_adjacent_) {
        if (last_ && last_->day == rec.day && last_->v4_24 == rec.v4_24 &&
            last_->v6_64 == rec.v6_64 && last_->asn4 == rec.asn4 &&
            last_->asn6 == rec.asn6)
          return false;
        last_ = rec;
      }
    }
    return push_at(at, rec);
  }

  /// push() into item `at` (a slot() index, `rec`'s item), under the
  /// item's own rule: the echo duplicate set. The assoc adjacent rule spans
  /// items and is push()'s alone. Touches no state but item `at`'s, so
  /// pushes to different items may run on different threads.
  bool push_at(std::size_t at, const Record& rec) {
    if constexpr (kEcho) {
      if (!admit_echo(at, rec)) return false;
    }
    auto& records = items_[at].records;
    if (!records.empty() && by_time(rec, records.back())) unsorted_[at] = 1;
    records.push_back(rec);
    return true;
  }

  /// Fold in a whole item: a new key is taken as is, a known one gains
  /// the records (merged at the seam) and the tags, under the
  /// first-non-empty rule.
  void absorb(Item&& item) {
    const std::size_t before = items_.size();
    const Key key = Schema::key(item);
    const std::size_t at = slot(key);
    if (items_.size() > before) {
      items_[at] = std::move(item);
      return;
    }
    if constexpr (kEcho) offer_tags(key, std::move(item.meta.tags));
    auto& records = items_[at].records;
    const std::size_t seam = records.size();
    records.insert(records.end(), item.records.begin(), item.records.end());
    if (order_from(records, seam)) ++rewrites_[at];
  }

  /// Fold in a batch, item by item. The key index persists, so a builder
  /// kept across batches (EchoAccumulator, AssocAccumulator) merges each
  /// batch in O(batch), not O(dataset so far).
  void merge(std::vector<Item>&& batch) {
    for (auto& item : batch) absorb(std::move(item));
  }

  /// The dataset so far, for a builder that only absorbs (nothing is left
  /// for take() to restore).
  std::vector<Item>& items() { return items_; }

  /// Per item: how many absorb() calls merged records in before ones it
  /// already held. While an item's count stays, its records only grew at
  /// the end.
  const std::vector<std::uint32_t>& rewrites() const { return rewrites_; }

  /// The dataset. Call once, last.
  std::vector<Item> take() {
    for (std::size_t i = 0; i < items_.size(); ++i)
      if (unsorted_[i])
        std::stable_sort(items_[i].records.begin(), items_[i].records.end(),
                         by_time);
    return std::move(items_);
  }

 private:
  static bool by_time(const Record& a, const Record& b) {
    return Schema::time(a) < Schema::time(b);
  }

  /// Restore time order in `records`, whose [0, seam) is in order: sort
  /// the rest stably if it is not, then merge it in unless it starts at or
  /// after the last ordered record. True when it merged, i.e. moved
  /// records of [0, seam).
  static bool order_from(std::vector<Record>& records, std::size_t seam) {
    const auto tail = records.begin() + std::ptrdiff_t(seam);
    if (!std::is_sorted(tail, records.end(), by_time))
      std::stable_sort(tail, records.end(), by_time);
    if (seam == 0 || tail == records.end() || !by_time(*tail, *(tail - 1)))
      return false;
    std::inplace_merge(records.begin(), tail, records.end(), by_time);
    return true;
  }

  /// An echo record's duplicate key: (hour << 1) | v6.
  static std::uint64_t echo_key(const Record& rec) {
    return (rec.hour << 1) | std::uint64_t(rec.family == atlas::Family::kV6);
  }

  /// The echo duplicate rule for `rec`, a record of item `at`.
  bool admit_echo(std::size_t at, const Record& rec) {
    const std::uint64_t key = echo_key(rec);
    Seam& seam = seams_[at];
    if (!seam.exact) {
      // The seam compares the hour as the key holds it (key >> 1), so it
      // agrees with the exact set for every hour.
      std::uint64_t& next = seam.next[key & 1];
      if ((key >> 1) >= next) {
        next = (key >> 1) + 1;
        return true;
      }
      const auto& records = items_[at].records;
      seam.exact = std::make_unique<std::unordered_set<std::uint64_t>>();
      seam.exact->reserve(records.size() + 1);
      for (const Record& r : records) seam.exact->insert(echo_key(r));
    }
    return seam.exact->insert(key).second;
  }

  /// Echo, per item: one past the last hour admitted at the seam, per
  /// family (0: none yet), and the exact key set once a record went back
  /// in time.
  struct Seam {
    std::array<std::uint64_t, 2> next{};
    std::unique_ptr<std::unordered_set<std::uint64_t>> exact;
  };

  std::vector<Item> items_;
  // Per item: whether a push put it out of time order, for take(). A byte
  // each, not std::vector<bool>'s shared words, so push_at() on different
  // items never writes the same memory.
  std::vector<std::uint8_t> unsorted_;
  std::vector<std::uint32_t> rewrites_;  // per item, see rewrites()
  std::vector<Seam> seams_;  // echo only, per item
  std::unordered_map<Key, std::size_t> index_;
  std::size_t last_slot_ = std::size_t(-1);
  bool dedup_adjacent_ = false;
  std::optional<Record> last_;  // assoc, with dedup_adjacent_
};

using EchoBuilder = DatasetBuilder<EchoSchema>;
using AssocBuilder = DatasetBuilder<AssocSchema>;

}  // namespace detail

/// Bytes a CSV reader reads from its stream at a time. Its buffer holds one
/// window plus the partial line carried from the last one (at most
/// max_line_bytes + 1 bytes).
inline constexpr std::size_t kCsvWindowBytes = std::size_t(256) << 10;
/// A window's complete lines are cut into line-aligned ranges, at most
/// this many per executor thread and each of at least kCsvMinRangeBytes.
/// Several ranges per thread let the threads share a window when one of
/// them starts late, instead of leaving its one range to the others.
inline constexpr std::size_t kCsvRangesPerThread = 4;
inline constexpr std::size_t kCsvMinRangeBytes = std::size_t(16) << 10;

/// Streaming CSV reader over one schema (see the header comment for the
/// windows and the replay). next() returns each accepted record in line
/// order and stores it in builder(). With `exec`, each window's lines are
/// parsed on its threads; the result is the same with or without it.
template <class Schema>
class CsvReader {
 public:
  using Record = typename Schema::Record;

  explicit CsvReader(std::istream& is, ReaderOptions options = {},
                     core::ShardExecutor* exec = nullptr);

  /// Next accepted record; nullopt at end of stream or once the error
  /// budget tripped (distinguish via finish()), and on every call after.
  std::optional<Record> next();

  /// Final verdict: OK, or a Status describing the budget violation with
  /// the first offending lines. Call after next() returned nullopt.
  core::Status finish() const { return ledger_.finish(); }

  const IngestStats& stats() const { return ledger_.stats(); }

  /// The dataset read so far: the items declared (meta lines and accepted
  /// records) with every record next() accepted, which the duplicate rule
  /// checks against. read_*_dataset takes it at the end of the stream.
  detail::DatasetBuilder<Schema>& builder() { return builder_; }

 private:
  /// One physical line as its range classified it. `text` points into the
  /// window: the line without CR (and BOM, on the first line), or an
  /// oversize line's first max_line_bytes + 1 bytes.
  struct Line {
    enum class Kind : std::uint8_t {
      kBlank,
      kOversize,
      kMeta,
      kHeader,
      kRecord,
      kReject,
    };
    Kind kind = Kind::kBlank;
    RejectReason why = RejectReason::kBadFieldCount;  // of a kReject
    std::string_view text;
  };
  /// One range's lines of the window and, in line order, the records of
  /// its kRecord lines. Reused from window to window.
  struct Range {
    std::vector<Line> lines;
    std::vector<Record> records;
  };

  /// Classify `raw`, a line without its '\n', into `line`; a parsed
  /// record is appended to `records`.
  void classify(std::string_view raw, bool first, Line& line,
                std::vector<Record>& records) const;
  void scan(const char* begin, const char* end, bool first,
            Range& out) const;
  /// Read windows until one yields lines; false at the end of the input or
  /// at a read failure.
  bool fill();
  void handle_meta(std::string_view line);
  /// Trip the ledger with a kInternal read failure at the next line.
  void read_failed(std::string_view what);

  std::istream& is_;
  ReaderOptions options_;
  core::ShardExecutor* exec_;
  detail::RejectLedger ledger_;
  detail::DatasetBuilder<Schema> builder_;
  std::unique_ptr<char[]> window_;
  std::size_t begin_ = 0, end_ = 0;  // the carried partial line
  std::vector<Range> ranges_;  // the window's lines, in order
  // The next line to replay: line at_ and record record_ of range range_.
  std::size_t range_ = 0, at_ = 0, record_ = 0;
  bool first_line_ = true;  // no line classified yet
  bool skipping_ = false;   // inside an oversize line, up to its '\n'
  bool at_end_ = false;     // nothing more to read
  bool read_error_ = false;
};

/// Streaming reader for the echo schema
/// (`probe_id,hour,family,x_client_ip,src_addr`). A duplicate is a second
/// record for an already-seen (probe_id, hour, family) key — the schema
/// allows at most one measurement per probe, hour and family. `#probe` and
/// `#tags` lines declare probes, tags interned through core::tag_pool().
using EchoReader = CsvReader<detail::EchoSchema>;

/// Streaming reader for the association schema
/// (`day,v4_24,v6_64,asn4,asn6`). With `assoc_dedup_adjacent` set, a
/// record whose parsed fields equal those of the immediately preceding
/// accepted record is rejected as a duplicate (the signature of a
/// duplicated export row in a dataset aggregated to unique tuples;
/// non-adjacent repeats are always kept). `#log` lines declare logs.
using AssocReader = CsvReader<detail::AssocSchema>;

extern template class CsvReader<detail::EchoSchema>;
extern template class CsvReader<detail::AssocSchema>;

// --------------------------------------------------------------- datasets

/// Load a whole multi-probe echo stream: records grouped into one
/// ProbeSeries per probe (first-appearance order), tags attached, records
/// in hour order (detail::DatasetBuilder). Fails only when the error
/// budget is exceeded or the stream fails.
/// `stats`, when non-null, receives the accounting even on failure. With
/// `exec`, lines are parsed on its threads (CsvReader).
core::Expected<std::vector<atlas::ProbeSeries>> read_echo_dataset(
    std::istream& is, const ReaderOptions& options = {},
    IngestStats* stats = nullptr, core::ShardExecutor* exec = nullptr);

/// Load a whole association stream: records grouped into one
/// AssociationLog per origin ASN (asn6, first-appearance order), records
/// in day order. The logs' mobile/registry attribution is left for the
/// caller.
core::Expected<std::vector<cdn::AssociationLog>> read_assoc_dataset(
    std::istream& is, const ReaderOptions& options = {},
    IngestStats* stats = nullptr, core::ShardExecutor* exec = nullptr);

/// Append `more` into `into`, merging series of the same probe id (records
/// appended, first tags win, hour order restored) — for datasets split
/// across several files. Expects `into`'s series in hour order, as the
/// readers return them.
void merge_echo_datasets(std::vector<atlas::ProbeSeries>& into,
                         std::vector<atlas::ProbeSeries>&& more);

/// Append `more` into `into`, merging logs of the same ASN.
void merge_assoc_datasets(std::vector<cdn::AssociationLog>& into,
                          std::vector<cdn::AssociationLog>&& more);

/// A dataset grown one batch at a time, as a stream accumulates it:
/// merge() folds in a batch under merge_*_datasets' rule, and items() is
/// the dataset so far.
using EchoAccumulator = detail::EchoBuilder;
using AssocAccumulator = detail::AssocBuilder;

/// One record as a schema line (no trailing newline) — the only record
/// writer; the readers above parse exactly this form.
std::string to_csv(const atlas::EchoRecord& rec);
std::string to_csv(const cdn::AssociationRecord& rec);

/// Write a multi-probe dataset: one header, then per probe a "#probe"
/// declaration, optional "#tags", and its records. read_echo_dataset
/// round-trips this exactly (including empty and tagged probes).
void write_echo_dataset(std::ostream& os,
                        const std::vector<atlas::ProbeSeries>& dataset);

/// Write a multi-ISP association dataset ("#log" declarations + records).
void write_assoc_dataset(std::ostream& os,
                         const std::vector<cdn::AssociationLog>& dataset);

}  // namespace dynamips::io
