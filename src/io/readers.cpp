#include "io/readers.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/failpoint.h"
#include "core/parallel.h"
#include "io/csv.h"

namespace dynamips::io {

std::string_view reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kOversizeLine: return "oversize_line";
    case RejectReason::kBadFieldCount: return "bad_field_count";
    case RejectReason::kBadNumber: return "bad_number";
    case RejectReason::kBadAddress: return "bad_address";
    case RejectReason::kOutOfRange: return "out_of_range";
    case RejectReason::kDuplicate: return "duplicate";
  }
  return "unknown";
}

void IngestStats::merge(const IngestStats& other) {
  lines_seen += other.lines_seen;
  data_lines += other.data_lines;
  records_accepted += other.records_accepted;
  headers_skipped += other.headers_skipped;
  meta_lines += other.meta_lines;
  blank_lines += other.blank_lines;
  quarantined += other.quarantined;
  quarantine_shed += other.quarantine_shed;
  load_wall_ns += other.load_wall_ns;
  for (std::size_t i = 0; i < kRejectReasonCount; ++i)
    rejects[i] += other.rejects[i];
  first_rejects.insert(first_rejects.end(), other.first_rejects.begin(),
                       other.first_rejects.end());
}

std::string IngestStats::summary() const {
  std::string out = std::to_string(records_accepted);
  out += " records, ";
  out += std::to_string(total_rejects());
  out += " rejected";
  if (total_rejects() > 0) {
    out += " (";
    bool first = true;
    for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
      if (rejects[i] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::to_string(rejects[i]);
      out += ' ';
      out += reject_reason_name(RejectReason(i));
    }
    out += ")";
  }
  if (quarantined > 0) {
    out += ", ";
    out += std::to_string(quarantined);
    out += " quarantined";
  }
  if (quarantine_shed > 0) {
    out += ", ";
    out += std::to_string(quarantine_shed);
    out += " quarantine writes shed (disk pressure)";
  }
  return out;
}

namespace detail {

RejectLedger::RejectLedger(const ReaderOptions& options,
                           std::string_view label, std::string_view unit)
    : options_(options), label_(label), unit_(unit) {
  if (options_.metrics) {
    lines_counter_ = &options_.metrics->counter("ingest.lines");
    accepted_counter_ = &options_.metrics->counter("ingest.records");
  }
}

void RejectLedger::reject(RejectReason reason, std::string_view text,
                          std::uint64_t position) {
  ++stats_.rejects[std::size_t(reason)];
  std::string_view kept = text.substr(0, kKeepTextBytes);
  if (stats_.first_rejects.size() < kKeepFirstRejects) {
    stats_.first_rejects.push_back(
        RejectedLine{position, reason, std::string(kept)});
  }
  if (options_.metrics) {
    std::string name = "ingest.reject.";
    name += reject_reason_name(reason);
    options_.metrics->counter(name).add(1);
  }
  if (options_.quarantine) {
    if (options_.shed_quarantine) {
      // Disk pressure: the reject above is still counted; only the
      // diagnostic copy of the line is dropped.
      ++stats_.quarantine_shed;
      if (options_.metrics)
        options_.metrics->counter("ingest.quarantine_shed").add(1);
    } else {
      (*options_.quarantine) << options_.source_label << ',' << position
                             << ',' << reject_reason_name(reason) << ','
                             << kept << '\n';
      ++stats_.quarantined;
      if (options_.metrics)
        options_.metrics->counter("ingest.quarantined").add(1);
    }
  }
  ++consecutive_rejects_;
  if (consecutive_rejects_ > options_.max_consecutive_rejects) {
    std::string msg = label_;
    msg += ": ";
    msg += std::to_string(consecutive_rejects_);
    msg += " consecutive malformed ";
    msg += unit_;
    msg += "s (cap ";
    msg += std::to_string(options_.max_consecutive_rejects);
    msg += "), last at ";
    msg += unit_;
    msg += " ";
    msg += std::to_string(position);
    msg += format_offenders();
    fatal_ = core::Status(core::StatusCode::kDataLoss, std::move(msg));
  }
}

core::Status RejectLedger::finish() const {
  if (tripped()) return fatal_;
  const std::uint64_t rejected = stats_.total_rejects();
  if (rejected == 0) return core::Status::Ok();
  const double budget =
      options_.max_reject_fraction * static_cast<double>(stats_.data_lines);
  if (static_cast<double>(rejected) <= budget) return core::Status::Ok();
  std::string msg = label_;
  msg += ": ";
  msg += std::to_string(rejected);
  msg += " of ";
  msg += std::to_string(stats_.data_lines);
  msg += " data ";
  msg += unit_;
  msg += "s rejected, over budget (max_reject_fraction=";
  std::ostringstream frac;
  frac << options_.max_reject_fraction;
  msg += frac.str();
  msg += ")";
  msg += format_offenders();
  return core::Status(core::StatusCode::kDataLoss, std::move(msg));
}

std::string RejectLedger::format_offenders() const {
  if (stats_.first_rejects.empty()) return {};
  std::string out = "; first offenders:";
  for (const auto& r : stats_.first_rejects) {
    out += " ";
    out += unit_;
    out += " ";
    out += std::to_string(r.line_number);
    out += " [";
    out += reject_reason_name(r.reason);
    out += "] \"";
    out += r.text;
    out += "\"";
  }
  return out;
}

}  // namespace detail

namespace {

/// Parse the five echo fields into `rec`; on failure reports why.
bool parse_echo_fields(const CsvFields& f, const ReaderOptions& options,
                       atlas::EchoRecord& rec, RejectReason& why) {
  auto probe = parse_csv_num<std::uint32_t>(f[0]);
  auto hour = parse_csv_num<std::uint64_t>(f[1]);
  if (!probe || !hour) {
    why = RejectReason::kBadNumber;
    return false;
  }
  if (*hour > options.max_hour) {
    why = RejectReason::kOutOfRange;
    return false;
  }
  rec.probe_id = *probe;
  rec.hour = *hour;
  if (f[2] == "4") {
    rec.family = atlas::Family::kV4;
    auto x = net::IPv4Address::parse(f[3]);
    auto s = net::IPv4Address::parse(f[4]);
    if (!x || !s) {
      why = RejectReason::kBadAddress;
      return false;
    }
    rec.x_client_ip4 = *x;
    rec.src_addr4 = *s;
  } else if (f[2] == "6") {
    rec.family = atlas::Family::kV6;
    auto x = net::IPv6Address::parse(f[3]);
    auto s = net::IPv6Address::parse(f[4]);
    if (!x || !s) {
      why = RejectReason::kBadAddress;
      return false;
    }
    rec.x_client_ip6 = *x;
    rec.src_addr6 = *s;
  } else {
    why = RejectReason::kBadNumber;  // family field is not 4 or 6
    return false;
  }
  return true;
}

bool parse_assoc_fields(const CsvFields& f, const ReaderOptions& options,
                        cdn::AssociationRecord& rec, RejectReason& why) {
  auto day = parse_csv_num<std::uint32_t>(f[0]);
  auto asn4 = parse_csv_num<std::uint32_t>(f[3]);
  auto asn6 = parse_csv_num<std::uint32_t>(f[4]);
  if (!day || !asn4 || !asn6) {
    why = RejectReason::kBadNumber;
    return false;
  }
  if (*day > options.max_day) {
    why = RejectReason::kOutOfRange;
    return false;
  }
  auto v4 = net::Prefix4::parse(f[1]);
  auto v6 = net::Prefix6::parse(f[2]);
  if (!v4 || !v6) {
    why = RejectReason::kBadAddress;
    return false;
  }
  rec.day = *day;
  rec.v4_24 = *v4;
  rec.v6_64 = *v6;
  rec.asn4 = *asn4;
  rec.asn6 = *asn6;
  return true;
}

/// Read up to `want` bytes of `is` into `out`; fewer only at the end of the
/// input or at a failed read, which sets badbit like istream::read. Unlike
/// istream::read, the count returned covers every byte delivered before a
/// stream buffer threw: each copy takes only what the buffer holds.
std::size_t read_window(std::istream& is, char* out, std::size_t want) {
  const std::istream::sentry ok(is, /*noskipws=*/true);
  if (!ok) return 0;
  std::streambuf* const sb = is.rdbuf();
  std::size_t got = 0;
  try {
    while (got < want) {
      const std::streamsize ready = sb->in_avail();
      if (ready > 0) {
        const std::streamsize n = sb->sgetn(
            out + got, std::min(ready, std::streamsize(want - got)));
        got += std::size_t(n);
        if (n > 0) continue;
      }
      if (std::istream::traits_type::eq_int_type(
              sb->sgetc(), std::istream::traits_type::eof())) {
        is.setstate(std::ios::eofbit);
        break;
      }
    }
  } catch (...) {
    is.setstate(std::ios::badbit);
  }
  return got;
}

/// `#probe,<id>` and `#tags,<id>,t1;t2` declare a probe and its tags;
/// false when the id is not a number. Other '#' lines are ignored.
bool apply_echo_meta(const CsvFields& f, detail::EchoBuilder& builder) {
  const bool tags_line = f[0] == "#tags" && f.size() == 3;
  if (!tags_line && !(f[0] == "#probe" && f.size() == 2)) return true;
  auto pid = parse_csv_num<std::uint32_t>(f[1]);
  if (!pid) return false;
  // A `#probe` line declares the probe: an offer of no tags.
  std::vector<core::TagId> tags;
  std::string_view rest = tags_line ? f[2] : std::string_view();
  while (!rest.empty()) {
    std::size_t semi = rest.find(';');
    std::string_view tag = rest.substr(0, semi);
    if (!tag.empty()) tags.push_back(core::tag_pool().intern(tag));
    if (semi == std::string_view::npos) break;
    rest.remove_prefix(semi + 1);
  }
  builder.offer_tags(*pid, std::move(tags));
  return true;
}

/// `#log,<asn>` declares a log; false when the ASN is not a number.
bool apply_assoc_meta(const CsvFields& f, detail::AssocBuilder& builder) {
  if (f[0] != "#log" || f.size() != 2) return true;
  auto asn = parse_csv_num<bgp::Asn>(f[1]);
  if (!asn) return false;
  builder.declare(*asn);
  return true;
}

/// What one schema's CSV text adds to its reader: the ingest label, the
/// header line's prefix, how five fields parse into a record, and how a
/// meta line's fields apply to the dataset.
template <class Schema>
struct CsvFormat;

template <>
struct CsvFormat<detail::EchoSchema> {
  static constexpr std::string_view kLabel = "echo ingest";
  static constexpr std::string_view kHeader = "probe_id,";
  static constexpr auto parse = parse_echo_fields;
  static constexpr auto apply_meta = apply_echo_meta;
};

template <>
struct CsvFormat<detail::AssocSchema> {
  static constexpr std::string_view kLabel = "assoc ingest";
  static constexpr std::string_view kHeader = "day,";
  static constexpr auto parse = parse_assoc_fields;
  static constexpr auto apply_meta = apply_assoc_meta;
};

}  // namespace

// -------------------------------------------------------------- CsvReader

template <class Schema>
CsvReader<Schema>::CsvReader(std::istream& is, ReaderOptions options,
                             core::ShardExecutor* exec)
    : is_(is),
      options_(std::move(options)),
      exec_(exec),
      ledger_(options_, CsvFormat<Schema>::kLabel, "line"),
      builder_(options_),
      ranges_(exec ? kCsvRangesPerThread * exec->thread_count() : 1) {}

template <class Schema>
void CsvReader<Schema>::classify(std::string_view raw, bool first, Line& line,
                                 std::vector<Record>& records) const {
  using Kind = typename Line::Kind;
  // Longer than max_line_bytes plus a CR: rejected with its head.
  if (raw.size() > options_.max_line_bytes + 1) {
    line.kind = Kind::kOversize;
    line.text = raw.substr(0, options_.max_line_bytes + 1);
    return;
  }
  std::string_view text = chomp_cr(raw);
  if (first) text = strip_utf8_bom(text);
  line.text = text;
  if (text.empty()) {
    line.kind = Kind::kBlank;
  } else if (text.front() == '#') {
    line.kind = Kind::kMeta;
  } else if (text.starts_with(CsvFormat<Schema>::kHeader)) {
    line.kind = Kind::kHeader;
  } else if (const CsvFields f = split_csv(text); f.size() != 5) {
    line.kind = Kind::kReject;
    line.why = RejectReason::kBadFieldCount;
  } else if (CsvFormat<Schema>::parse(f, options_, records.emplace_back(),
                                      line.why)) {
    line.kind = Kind::kRecord;
  } else {
    line.kind = Kind::kReject;
    records.pop_back();
  }
}

template <class Schema>
void CsvReader<Schema>::scan(const char* begin, const char* end, bool first,
                             Range& out) const {
  // Count the lines first: the reused array is resized once, and its
  // lines are overwritten in place.
  std::size_t count = 0;
  for (const char* p = begin; p != end; ++count)
    p = static_cast<const char*>(std::memchr(p, '\n', end - p)) + 1;
  out.lines.resize(count);
  out.records.clear();
  for (Line& line : out.lines) {
    const char* nl =
        static_cast<const char*>(std::memchr(begin, '\n', end - begin));
    classify(std::string_view(begin, nl - begin), first, line, out.records);
    first = false;
    begin = nl + 1;
  }
}

template <class Schema>
bool CsvReader<Schema>::fill() {
  // A carried partial line holds at most max_line_bytes + 1 bytes.
  if (!window_)
    window_ = std::make_unique_for_overwrite<char[]>(
        kCsvWindowBytes + options_.max_line_bytes + 1);
  char* const window = window_.get();
  while (!at_end_) {
    // Carry the partial line to the front, and read a window behind it.
    if (begin_ > 0) std::memmove(window, window + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    const std::size_t got = read_window(is_, window + end_, kCsvWindowBytes);
    if (skipping_) {
      // The rest of an oversize line, through its '\n', is dropped.
      const void* nl = std::memchr(window + end_, '\n', got);
      begin_ = nl ? std::size_t(static_cast<const char*>(nl) - window) + 1
                  : end_ + got;
      skipping_ = nl == nullptr;
    }
    end_ += got;
    // badbit is a failed read (the stream buffer threw), not an end of
    // stream: the rest of the input was never seen.
    read_error_ = is_.bad();
    at_end_ = read_error_ || got < kCsvWindowBytes;

    // The complete lines, cut into line-aligned ranges.
    const char* const lo = window + begin_;
    const std::size_t last = std::string_view(lo, end_ - begin_).rfind('\n');
    std::size_t n = 0;  // ranges scanned
    bool lines = last != std::string_view::npos;
    if (lines) {
      const char* const hi = lo + last + 1;
      const std::size_t bytes = std::size_t(hi - lo);
      n = std::clamp<std::size_t>(bytes / kCsvMinRangeBytes, 1,
                                  ranges_.size());
      std::vector<const char*> cut(n + 1, hi);
      cut[0] = lo;
      for (std::size_t k = 1; k < n; ++k) {
        const char* at = std::max(cut[k - 1], lo + bytes * k / n);
        if (at == hi) {  // a long line ran past the remaining cut points
          n = k;
          break;
        }
        cut[k] = static_cast<const char*>(std::memchr(at, '\n', hi - at)) + 1;
      }
      const bool first = first_line_;
      auto task = [&](unsigned, std::size_t k) {
        scan(cut[k], cut[k + 1], first && k == 0, ranges_[k]);
      };
      if (n > 1) {
        exec_->dispatch(n, task);
      } else {
        task(0, 0);
      }
      first_line_ = false;
      begin_ = std::size_t(hi - window);
    }
    for (std::size_t k = n; k < ranges_.size(); ++k) {
      ranges_[k].lines.clear();
      ranges_[k].records.clear();
    }
    // The partial line: the last line when the input ended without a
    // '\n', or, once it is longer than a line may be, an oversize line
    // whose rest is skipped. After a read failure a partial line that may
    // still be a line is not counted: the failure is reported at it.
    const std::size_t partial = end_ - begin_;
    const bool clean_end = at_end_ && !read_error_;
    if (clean_end ? partial > 0 : partial > options_.max_line_bytes + 1) {
      Range& range = ranges_[n > 0 ? n - 1 : 0];
      classify(std::string_view(window + begin_, partial), first_line_,
               range.lines.emplace_back(), range.records);
      first_line_ = false;
      skipping_ = !at_end_;
      begin_ = end_;
      lines = true;
    }
    if (lines) {
      range_ = at_ = record_ = 0;
      return true;
    }
  }
  // range_ stays past the last range: the end of the input is final.
  return false;
}

template <class Schema>
void CsvReader<Schema>::read_failed(std::string_view what) {
  ledger_.fail(core::Status(
      core::StatusCode::kInternal,
      std::string(CsvFormat<Schema>::kLabel) + ": " + std::string(what) +
          " at line " + std::to_string(ledger_.stats().lines_seen + 1)));
}

template <class Schema>
void CsvReader<Schema>::handle_meta(std::string_view line) {
  if (!CsvFormat<Schema>::apply_meta(split_csv(line), builder_)) {
    ledger_.count_data();
    ledger_.reject(RejectReason::kBadNumber, line, ledger_.stats().lines_seen);
    return;
  }
  ++ledger_.stats().meta_lines;  // declared, or an unknown comment
}

template <class Schema>
std::optional<typename Schema::Record> CsvReader<Schema>::next() {
  using Kind = typename Line::Kind;
  while (!ledger_.tripped()) {
    if (auto fp = core::failpoint("readers.line"); fp) {
      if (fp.is_error()) {
        read_failed("injected read failure (" + std::string(fp.errno_name()) +
                    ")");
        break;
      }
      core::failpoint_sleep(fp);
    }
    while (range_ < ranges_.size() && at_ == ranges_[range_].lines.size()) {
      ++range_;
      at_ = record_ = 0;
    }
    if (range_ == ranges_.size() && !fill()) {
      if (read_error_) read_failed("read failed");
      break;
    }
    Range& range = ranges_[range_];
    const Line& line = range.lines[at_++];
    ledger_.count_unit();
    const std::uint64_t at = ledger_.stats().lines_seen;
    switch (line.kind) {
      case Kind::kBlank:
        ++ledger_.stats().blank_lines;
        break;
      case Kind::kMeta:
        handle_meta(line.text);
        break;
      case Kind::kHeader:
        ++ledger_.stats().headers_skipped;
        break;
      case Kind::kOversize:
        ledger_.count_data();
        ledger_.reject(RejectReason::kOversizeLine, line.text, at);
        break;
      case Kind::kReject:
        ledger_.count_data();
        ledger_.reject(line.why, line.text, at);
        break;
      case Kind::kRecord: {
        ledger_.count_data();
        const Record& rec = range.records[record_++];
        if (!builder_.push(rec)) {
          ledger_.reject(RejectReason::kDuplicate, line.text, at);
          break;
        }
        ledger_.accept();
        return rec;
      }
    }
  }
  return std::nullopt;
}

template class CsvReader<detail::EchoSchema>;
template class CsvReader<detail::AssocSchema>;

// --------------------------------------------------------------- datasets

namespace {

/// Run `Reader` to the end; next() stores each accepted record in its
/// builder.
template <class Reader>
auto read_dataset(std::istream& is, const ReaderOptions& options,
                  IngestStats* stats, core::ShardExecutor* exec,
                  const char* what)
    -> core::Expected<decltype(std::declval<Reader&>().builder().take())> {
  Reader reader(is, options, exec);
  while (reader.next()) continue;
  if (stats) stats->merge(reader.stats());
  if (core::Status st = reader.finish(); !st.ok())
    return st.with_context(what);
  return reader.builder().take();
}

}  // namespace

core::Expected<std::vector<atlas::ProbeSeries>> read_echo_dataset(
    std::istream& is, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return read_dataset<EchoReader>(is, options, stats, exec,
                                  "load echo dataset");
}

core::Expected<std::vector<cdn::AssociationLog>> read_assoc_dataset(
    std::istream& is, const ReaderOptions& options, IngestStats* stats,
    core::ShardExecutor* exec) {
  return read_dataset<AssocReader>(is, options, stats, exec,
                                   "load assoc dataset");
}

void merge_echo_datasets(std::vector<atlas::ProbeSeries>& into,
                         std::vector<atlas::ProbeSeries>&& more) {
  detail::EchoBuilder builder(std::move(into));
  builder.merge(std::move(more));
  into = builder.take();
}

void merge_assoc_datasets(std::vector<cdn::AssociationLog>& into,
                          std::vector<cdn::AssociationLog>&& more) {
  detail::AssocBuilder builder(std::move(into));
  builder.merge(std::move(more));
  into = builder.take();
}

std::string to_csv(const atlas::EchoRecord& rec) {
  std::string out;
  out += std::to_string(rec.probe_id);
  out += ',';
  out += std::to_string(rec.hour);
  out += ',';
  if (rec.family == atlas::Family::kV4) {
    out += "4,";
    out += rec.x_client_ip4.to_string();
    out += ',';
    out += rec.src_addr4.to_string();
  } else {
    out += "6,";
    out += rec.x_client_ip6.to_string();
    out += ',';
    out += rec.src_addr6.to_string();
  }
  return out;
}

std::string to_csv(const cdn::AssociationRecord& rec) {
  std::string out;
  out += std::to_string(rec.day);
  out += ',';
  out += rec.v4_24.to_string();
  out += ',';
  out += rec.v6_64.to_string();
  out += ',';
  out += std::to_string(rec.asn4);
  out += ',';
  out += std::to_string(rec.asn6);
  return out;
}

void write_echo_dataset(std::ostream& os,
                        const std::vector<atlas::ProbeSeries>& dataset) {
  os << "probe_id,hour,family,x_client_ip,src_addr\n";
  for (const auto& series : dataset) {
    os << "#probe," << series.meta.probe_id << '\n';
    if (!series.meta.tags.empty()) {
      os << "#tags," << series.meta.probe_id << ',';
      for (std::size_t i = 0; i < series.meta.tags.size(); ++i) {
        if (i) os << ';';
        os << core::tag_pool().name_of(series.meta.tags[i]);
      }
      os << '\n';
    }
    for (const auto& rec : series.records) os << to_csv(rec) << '\n';
  }
}

void write_assoc_dataset(std::ostream& os,
                         const std::vector<cdn::AssociationLog>& dataset) {
  os << "day,v4_24,v6_64,asn4,asn6\n";
  for (const auto& log : dataset) {
    os << "#log," << log.asn << '\n';
    for (const auto& rec : log.records) os << to_csv(rec) << '\n';
  }
}

}  // namespace dynamips::io
