// csv.h — minimal CSV tokenization shared by the dataset codecs.
//
// The interchange formats are deliberately plain: comma-separated fields,
// no quoting (no field in any of our schemas can contain a comma), one
// header line. This keeps files greppable and loadable by any tooling.
// Tokenization is hardened for hostile input: splitting is capped so a
// pathological line cannot allocate an unbounded field vector, and helpers
// strip the CRLF / UTF-8 BOM artifacts Windows exports leave behind.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <vector>

namespace dynamips::io {

/// Hard cap on fields per line. Our widest schema has 5 fields; 16 leaves
/// headroom while bounding the allocation for a line that is nothing but
/// commas.
inline constexpr std::size_t kMaxCsvFields = 16;

/// Split one CSV line into fields (no quoting rules; empty fields kept).
/// At most `max_fields` fields are produced: once the cap is reached the
/// remainder of the line — commas included — becomes the final field, so
/// schema-width checks (`fields.size() == 5`) reject oversplit lines
/// without the splitter ever allocating proportionally to the comma count.
inline std::vector<std::string_view> split_csv(
    std::string_view line, std::size_t max_fields = kMaxCsvFields) {
  std::vector<std::string_view> out;
  if (max_fields == 0) max_fields = 1;
  std::size_t start = 0;
  while (true) {
    if (out.size() + 1 == max_fields) {
      out.push_back(line.substr(start));
      break;
    }
    std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Drop one trailing '\r' (CRLF line endings read via std::getline).
inline std::string_view chomp_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Drop a leading UTF-8 byte-order mark (EF BB BF), which spreadsheet
/// tools prepend to the header line of exported CSVs.
inline std::string_view strip_utf8_bom(std::string_view line) {
  if (line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' &&
      line[2] == '\xBF')
    line.remove_prefix(3);
  return line;
}

/// Parse a whole field as an unsigned integer: every byte must be consumed
/// (no sign, no whitespace, no trailing junk). Shared by the dataset codecs
/// and the hardened readers.
template <typename T>
std::optional<T> parse_csv_num(std::string_view s) {
  T v{};
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace dynamips::io
