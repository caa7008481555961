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
//  * reading is BOUNDS-HARDENED: lines are read through a fixed-size
//    buffer (an unterminated gigabyte "line" is rejected, not buffered),
//    field splitting is capped (csv.h), and CRLF line endings / a UTF-8
//    BOM on the header are tolerated.
//
// Besides the schema lines, optional '#'-prefixed metadata lines let
// datasets survive a round trip through CSV:
//   #probe,<id>            declares a probe (keeps empty histories alive)
//   #tags,<id>,t1;t2       Atlas probe tags (the sanitizer filters on them)
//   #log,<asn>             declares a CDN association log
// Unknown '#' lines are skipped. Repeated header lines are tolerated, so
// concatenating exports (`cat a.csv b.csv`) is a valid dataset.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "atlas/echo.h"
#include "cdn/rum.h"
#include "core/status.h"
#include "obs/metrics.h"

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
  std::string text;  ///< truncated to ReaderOptions::keep_text_bytes
};

struct ReaderOptions {
  /// Lines longer than this are rejected as kOversizeLine without ever
  /// being buffered whole (the reader skips to the next newline).
  std::size_t max_line_bytes = 4096;
  /// Field-split cap forwarded to split_csv().
  std::size_t max_fields = 16;

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
  /// Reject an assoc data line that is byte-equal to the immediately
  /// preceding accepted one (kDuplicate). Off by default: repeated tuples
  /// are legitimate hit-weight multiplicity in our exports. Turn on for
  /// datasets aggregated to unique (v4_24, v6_64, day) tuples, where an
  /// adjacent repeat is the signature of a duplicated export row.
  bool assoc_dedup_adjacent = false;

  // --- reporting --------------------------------------------------------
  /// How many offending lines to keep verbatim for the failure Status.
  std::size_t keep_first_rejects = 5;
  /// Bytes of each offending line kept / quarantined.
  std::size_t keep_text_bytes = 160;
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
  std::vector<RejectedLine> first_rejects;  ///< first keep_first_rejects

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

  /// One human-readable line, e.g.
  /// "1204 records, 7 rejected (3 bad_address, 4 duplicate), 7 quarantined".
  std::string summary() const;
};

namespace detail {

/// Reject classification, quarantine, and error-budget accounting — ONE
/// shared implementation for every ingest surface. The CSV readers feed it
/// per line (through LineCursor below); the columnar readers (columnar.h)
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
  /// Clean-batch fast path: account `n` validated records at once (the
  /// columnar readers take it when a whole batch passed the column-wise
  /// validation scans). Equivalent to n count_unit/count_data/accept
  /// triples.
  void accept_bulk(std::uint64_t n) {
    stats_.lines_seen += n;
    stats_.data_lines += n;
    stats_.records_accepted += n;
    consecutive_rejects_ = 0;
    if (lines_counter_) lines_counter_->add(n);
    if (accepted_counter_) accepted_counter_->add(n);
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

/// Line-level machinery shared by both CSV readers: bounded line fetch with
/// CRLF/BOM tolerance, delegating all reject accounting to RejectLedger.
class LineCursor {
 public:
  LineCursor(std::istream& is, const ReaderOptions& options,
             std::string_view label);

  /// Fetch the next non-blank line (CR/BOM stripped). Oversize lines are
  /// rejected internally and skipped. Returns false at end of stream or
  /// once the consecutive-reject cap has tripped.
  bool next_line(std::string_view& line);

  void reject(RejectReason reason, std::string_view text) {
    ledger_.reject(reason, text, ledger_.stats().lines_seen);
  }
  void accept() { ledger_.accept(); }
  void count_header() { ++ledger_.stats().headers_skipped; }
  void count_meta() { ++ledger_.stats().meta_lines; }
  /// Mark the current line as a record candidate (call before accept or
  /// reject so the budget denominator counts it).
  void count_data_line() { ledger_.count_data(); }

  bool tripped() const { return ledger_.tripped(); }
  std::uint64_t line_number() const { return ledger_.stats().lines_seen; }

  /// Evaluate the end-of-stream error budget; returns the fatal status if
  /// the cursor tripped mid-stream.
  core::Status finish() const { return ledger_.finish(); }

  const IngestStats& stats() const { return ledger_.stats(); }

 private:
  std::istream& is_;
  RejectLedger ledger_;
  std::string label_;
  std::vector<char> buffer_;
};

}  // namespace detail

/// Streaming reader for the echo schema
/// (`probe_id,hour,family,x_client_ip,src_addr`). A duplicate is a second
/// record for an already-seen (probe_id, hour, family) key — the schema
/// allows at most one measurement per probe, hour and family.
class EchoReader {
 public:
  explicit EchoReader(std::istream& is, ReaderOptions options = {});

  /// Next accepted record; nullopt at end of stream or once the error
  /// budget tripped (distinguish via finish()).
  std::optional<atlas::EchoRecord> next();

  /// Final verdict: OK, or a Status describing the budget violation with
  /// the first offending lines. Call after next() returned nullopt.
  core::Status finish() const { return cursor_.finish(); }

  const IngestStats& stats() const { return cursor_.stats(); }

  /// Probe ids in order of first appearance (declaration or first record).
  const std::vector<std::uint32_t>& probe_order() const {
    return probe_order_;
  }
  /// Tags declared for a probe via "#tags" lines (empty when none),
  /// interned through core::tag_pool().
  const std::vector<core::TagId>& tags_for(std::uint32_t probe_id) const;

 private:
  void handle_meta(std::string_view line);
  void note_probe(std::uint32_t probe_id);

  detail::LineCursor cursor_;
  ReaderOptions options_;
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>> seen_;
  std::vector<std::uint32_t> probe_order_;
  std::unordered_set<std::uint32_t> known_probes_;
  std::unordered_map<std::uint32_t, std::vector<core::TagId>> tags_;
};

/// Streaming reader for the association schema
/// (`day,v4_24,v6_64,asn4,asn6`). With `assoc_dedup_adjacent` set, a data
/// line byte-equal to the immediately preceding accepted line is rejected
/// as a duplicate (the signature of a duplicated export row in a dataset
/// aggregated to unique tuples; non-adjacent repeats are always kept).
class AssocReader {
 public:
  explicit AssocReader(std::istream& is, ReaderOptions options = {});

  std::optional<cdn::AssociationRecord> next();
  core::Status finish() const { return cursor_.finish(); }
  const IngestStats& stats() const { return cursor_.stats(); }

  /// Log ASNs (keyed on asn6, the side the CDN attributes the /64 to) in
  /// order of first appearance.
  const std::vector<bgp::Asn>& log_order() const { return log_order_; }

 private:
  void handle_meta(std::string_view line);
  void note_log(bgp::Asn asn);

  detail::LineCursor cursor_;
  ReaderOptions options_;
  std::string last_accepted_line_;
  std::vector<bgp::Asn> log_order_;
  std::unordered_set<bgp::Asn> known_logs_;
};

// --------------------------------------------------------------- datasets

/// Load a whole multi-probe echo stream: records grouped into one
/// ProbeSeries per probe (first-appearance order), tags attached, records
/// stably sorted by hour. Fails only when the error budget is exceeded.
/// `stats`, when non-null, receives the accounting even on failure.
core::Expected<std::vector<atlas::ProbeSeries>> read_echo_dataset(
    std::istream& is, const ReaderOptions& options = {},
    IngestStats* stats = nullptr);

/// Load a whole association stream: records grouped into one
/// AssociationLog per origin ASN (asn6, first-appearance order), records
/// stably sorted by day. The logs' mobile/registry attribution is left for
/// the caller.
core::Expected<std::vector<cdn::AssociationLog>> read_assoc_dataset(
    std::istream& is, const ReaderOptions& options = {},
    IngestStats* stats = nullptr);

/// Append `more` into `into`, merging series of the same probe id (records
/// appended, first tags win) — for datasets split across several files.
void merge_echo_datasets(std::vector<atlas::ProbeSeries>& into,
                         std::vector<atlas::ProbeSeries>&& more);

/// Append `more` into `into`, merging logs of the same ASN.
void merge_assoc_datasets(std::vector<cdn::AssociationLog>& into,
                          std::vector<cdn::AssociationLog>&& more);

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
