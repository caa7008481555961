#include "io/readers.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/failpoint.h"
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

LineCursor::LineCursor(std::istream& is, const ReaderOptions& options,
                       std::string_view label)
    : is_(is), ledger_(options, label, "line"), label_(label) {
  // +1 slack so that a line of exactly max_line_bytes fits and only a
  // strictly longer one trips getline's failbit.
  buffer_.resize(options.max_line_bytes + 2);
}

bool LineCursor::read_failed(std::string_view what) {
  ledger_.fail(core::Status(
      core::StatusCode::kInternal,
      label_ + ": " + std::string(what) + " at line " +
          std::to_string(ledger_.stats().lines_seen + 1)));
  return false;
}

bool LineCursor::next_line(std::string_view& line) {
  while (!tripped()) {
    if (auto fp = core::failpoint("readers.line"); fp) {
      if (fp.is_error())
        return read_failed("injected read failure (" +
                           std::string(fp.errno_name()) + ")");
      core::failpoint_sleep(fp);
    }
    is_.getline(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    // badbit is a failed read (the stream buffer threw), not an end of
    // stream: the rest of the input was never seen.
    if (is_.bad()) return read_failed("read failed");
    std::size_t got = static_cast<std::size_t>(is_.gcount());
    if (got == 0 && !is_.good()) return false;  // clean end of stream
    ledger_.count_unit();
    if (is_.fail() && !is_.eof()) {
      // The line exceeded the buffer: reject what we buffered, then skip
      // the remainder without ever holding more than the buffer.
      std::string_view head(buffer_.data(), got);
      is_.clear();
      is_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      ledger_.count_data();
      reject(RejectReason::kOversizeLine, head);
      continue;
    }
    // gcount includes the extracted-but-not-stored '\n' delimiter; a final
    // line terminated by EOF instead of '\n' sets eofbit and stores all of
    // its gcount characters.
    std::size_t len = got;
    if (!is_.eof() && len > 0) --len;
    std::string_view text(buffer_.data(), len);
    text = chomp_cr(text);
    if (ledger_.stats().lines_seen == 1) text = strip_utf8_bom(text);
    if (text.empty()) {
      ++ledger_.stats().blank_lines;
      continue;
    }
    line = text;
    return true;
  }
  return false;
}

}  // namespace detail

namespace {

/// Parse the five echo fields into `rec`; on failure reports why.
bool parse_echo_fields(const std::vector<std::string_view>& f,
                       const ReaderOptions& options, atlas::EchoRecord& rec,
                       RejectReason& why) {
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

bool parse_assoc_fields(const std::vector<std::string_view>& f,
                        const ReaderOptions& options,
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

/// The record loop both readers share: meta lines go to `meta`, repeated
/// headers are skipped, and a data line is split, parsed and put to the
/// builder's duplicate rule, each failure rejected with its reason.
template <class Builder, class Parse, class Meta>
std::optional<typename Builder::Record> next_record(
    detail::LineCursor& cursor, const ReaderOptions& options,
    Builder& builder, std::string_view header, Parse parse, Meta meta) {
  std::string_view line;
  while (cursor.next_line(line)) {
    if (line.front() == '#') {
      meta(line);
      continue;
    }
    if (line.starts_with(header)) {
      cursor.count_header();
      continue;
    }
    cursor.count_data_line();
    auto f = split_csv(line);
    if (f.size() != 5) {
      cursor.reject(RejectReason::kBadFieldCount, line);
      continue;
    }
    typename Builder::Record rec;
    RejectReason why{};
    if (!parse(f, options, rec, why)) {
      cursor.reject(why, line);
      continue;
    }
    if (!builder.admit(rec)) {
      cursor.reject(RejectReason::kDuplicate, line);
      continue;
    }
    cursor.accept();
    return rec;
  }
  return std::nullopt;
}

}  // namespace

// ------------------------------------------------------------- EchoReader

EchoReader::EchoReader(std::istream& is, ReaderOptions options)
    : cursor_(is, options, "echo ingest"),
      options_(std::move(options)),
      builder_(options_) {}

void EchoReader::handle_meta(std::string_view line) {
  auto f = split_csv(line);
  const bool tags_line = f[0] == "#tags" && f.size() == 3;
  if (!tags_line && !(f[0] == "#probe" && f.size() == 2)) {
    cursor_.count_meta();  // unknown comment: tolerated
    return;
  }
  auto pid = parse_csv_num<std::uint32_t>(f[1]);
  if (!pid) {
    cursor_.count_data_line();
    cursor_.reject(RejectReason::kBadNumber, line);
    return;
  }
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
  builder_.offer_tags(*pid, std::move(tags));
  cursor_.count_meta();
}

std::optional<atlas::EchoRecord> EchoReader::next() {
  return next_record(cursor_, options_, builder_, "probe_id,",
                     parse_echo_fields,
                     [this](std::string_view line) { handle_meta(line); });
}

// ------------------------------------------------------------ AssocReader

AssocReader::AssocReader(std::istream& is, ReaderOptions options)
    : cursor_(is, options, "assoc ingest"),
      options_(std::move(options)),
      builder_(options_) {}

void AssocReader::handle_meta(std::string_view line) {
  auto f = split_csv(line);
  if (f[0] == "#log" && f.size() == 2) {
    auto asn = parse_csv_num<bgp::Asn>(f[1]);
    if (!asn) {
      cursor_.count_data_line();
      cursor_.reject(RejectReason::kBadNumber, line);
      return;
    }
    builder_.declare(*asn);
    cursor_.count_meta();
    return;
  }
  cursor_.count_meta();
}

std::optional<cdn::AssociationRecord> AssocReader::next() {
  return next_record(cursor_, options_, builder_, "day,", parse_assoc_fields,
                     [this](std::string_view line) { handle_meta(line); });
}

// --------------------------------------------------------------- datasets

namespace {

/// Run `Reader` to the end, adding each accepted record to its builder.
template <class Reader>
auto read_dataset(std::istream& is, const ReaderOptions& options,
                  IngestStats* stats, const char* what)
    -> core::Expected<decltype(std::declval<Reader&>().builder().take())> {
  Reader reader(is, options);
  while (auto rec = reader.next()) reader.builder().add(*rec);
  if (stats) stats->merge(reader.stats());
  if (core::Status st = reader.finish(); !st.ok())
    return st.with_context(what);
  return reader.builder().take();
}

}  // namespace

core::Expected<std::vector<atlas::ProbeSeries>> read_echo_dataset(
    std::istream& is, const ReaderOptions& options, IngestStats* stats) {
  return read_dataset<EchoReader>(is, options, stats, "load echo dataset");
}

core::Expected<std::vector<cdn::AssociationLog>> read_assoc_dataset(
    std::istream& is, const ReaderOptions& options, IngestStats* stats) {
  return read_dataset<AssocReader>(is, options, stats, "load assoc dataset");
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
