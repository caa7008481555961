// csv.h — minimal CSV tokenization shared by the dataset codecs.
//
// The interchange formats are deliberately plain: comma-separated fields,
// no quoting (no field in any of our schemas can contain a comma), one
// header line. This keeps files greppable and loadable by any tooling.
// Tokenization is hardened for hostile input: splitting is capped into a
// fixed field array, so a pathological line costs no allocation, and helpers
// strip the CRLF / UTF-8 BOM artifacts Windows exports leave behind.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>
#include <optional>
#include <string_view>

namespace dynamips::io {

/// Hard cap on fields per line. Our widest schema has 5 fields; 16 leaves
/// headroom while bounding the work for a line that is nothing but commas.
inline constexpr std::size_t kMaxCsvFields = 16;

/// The fields of one line: views into it, at most kMaxCsvFields, held in
/// place so that splitting a line allocates nothing.
class CsvFields {
 public:
  std::size_t size() const { return size_; }
  std::string_view operator[](std::size_t i) const { return fields_[i]; }
  const std::string_view* begin() const { return fields_.data(); }
  const std::string_view* end() const { return fields_.data() + size_; }
  void push_back(std::string_view field) { fields_[size_++] = field; }

 private:
  std::array<std::string_view, kMaxCsvFields> fields_;
  std::size_t size_ = 0;
};

/// Split one CSV line into fields (no quoting rules; empty fields kept).
/// At most `max_fields` fields are produced (clamped to [1, kMaxCsvFields]):
/// once the cap is reached the remainder of the line — commas included —
/// becomes the final field, so schema-width checks (`fields.size() == 5`)
/// reject oversplit lines.
inline CsvFields split_csv(std::string_view line,
                           std::size_t max_fields = kMaxCsvFields) {
  CsvFields out;
  max_fields = std::clamp<std::size_t>(max_fields, 1, kMaxCsvFields);
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

/// Drop one trailing '\r' (a CRLF line ending).
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
