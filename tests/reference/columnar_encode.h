// reference/columnar_encode.h — a plain reference of the DYNCOL1 encoder.
//
// Three serial passes: every record is pushed field by field into one
// ckpt::Writer per column, each column is CRC'd, and `assemble` copies the
// columns behind the header into a second string. The column tables repeat
// those of io/columnar.cpp (tags, widths and field order). The encoder's
// one-pass tasks must produce the same bytes on any thread count, and its
// returned CRC must be crc32() of them (test_columnar's property tests).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "atlas/echo.h"
#include "cdn/rum.h"
#include "core/intern.h"
#include "io/checkpoint.h"
#include "io/columnar.h"

namespace dynamips::io::reference {

using ckpt::crc32;
using ckpt::fourcc;

constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kColGroupRows = fourcc('G', 'C', 'N', 'T');

struct RowColumn {
  std::uint32_t tag;
  std::size_t width;  // 1, 4 or 8
};

struct EchoColumns {
  using Item = atlas::ProbeSeries;
  using Record = atlas::EchoRecord;
  static constexpr std::uint32_t kKind = kColumnarKindEcho;
  static constexpr std::uint32_t kGroupKey = fourcc('G', 'P', 'I', 'D');
  static constexpr std::uint32_t kGroupTags = fourcc('G', 'T', 'A', 'G');
  static constexpr std::array kRows = {
      RowColumn{fourcc('H', 'O', 'U', 'R'), 8},
      RowColumn{fourcc('F', 'A', 'M', '_'), 1},
      RowColumn{fourcc('X', '4', '_', '_'), 4},
      RowColumn{fourcc('S', '4', '_', '_'), 4},
      RowColumn{fourcc('X', '6', 'H', 'I'), 8},
      RowColumn{fourcc('X', '6', 'L', 'O'), 8},
      RowColumn{fourcc('S', '6', 'H', 'I'), 8},
      RowColumn{fourcc('S', '6', 'L', 'O'), 8},
  };
  using Row = std::array<std::uint64_t, kRows.size()>;

  static std::uint32_t group_key(const Item& s) { return s.meta.probe_id; }

  static Row put(const Record& rec) {
    return {rec.hour, rec.family == atlas::Family::kV6 ? 1u : 0u,
            rec.x_client_ip4.value(), rec.src_addr4.value(),
            rec.x_client_ip6.bits().hi, rec.x_client_ip6.bits().lo,
            rec.src_addr6.bits().hi, rec.src_addr6.bits().lo};
  }
};

struct AssocColumns {
  using Item = cdn::AssociationLog;
  using Record = cdn::AssociationRecord;
  static constexpr std::uint32_t kKind = kColumnarKindAssoc;
  static constexpr std::uint32_t kGroupKey = fourcc('G', 'A', 'S', 'N');
  static constexpr std::uint32_t kGroupTags = 0;  // none
  static constexpr std::array kRows = {
      RowColumn{fourcc('D', 'A', 'Y', '_'), 4},
      RowColumn{fourcc('V', '4', 'A', '_'), 4},
      RowColumn{fourcc('V', '4', 'L', '_'), 1},
      RowColumn{fourcc('V', '6', 'H', 'I'), 8},
      RowColumn{fourcc('V', '6', 'L', 'O'), 8},
      RowColumn{fourcc('V', '6', 'L', '_'), 1},
      RowColumn{fourcc('A', 'S', '4', '_'), 4},
      RowColumn{fourcc('A', 'S', '6', '_'), 4},
  };
  using Row = std::array<std::uint64_t, kRows.size()>;

  static std::uint32_t group_key(const Item& log) { return log.asn; }

  static Row put(const Record& rec) {
    return {rec.day, rec.v4_24.address().value(),
            std::uint64_t(rec.v4_24.length()), rec.v6_64.address().bits().hi,
            rec.v6_64.address().bits().lo, std::uint64_t(rec.v6_64.length()),
            rec.asn4, rec.asn6};
  }
};

struct Column {
  std::uint32_t tag = 0;
  std::string payload;
};

inline std::string assemble(std::uint32_t kind, std::uint64_t rows,
                            std::uint64_t groups,
                            std::vector<Column>&& columns) {
  // header size: magic + version + kind + rows + groups + ncols +
  // directory + header crc
  const std::size_t header_size = 8 + 4 + 4 + 8 + 8 + 4 +
                                  columns.size() * (4 + 8 + 8 + 4) + 4;
  std::vector<std::uint64_t> offsets(columns.size());
  std::size_t cursor = header_size;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    cursor = (cursor + kAlign - 1) / kAlign * kAlign;
    offsets[i] = cursor;
    cursor += columns[i].payload.size();
  }

  ckpt::Writer head;
  head.reserve(header_size);
  head.raw(kColumnarMagic);
  head.u32(kColumnarVersion);
  head.u32(kind);
  head.u64(rows);
  head.u64(groups);
  head.u32(std::uint32_t(columns.size()));
  for (std::size_t i = 0; i < columns.size(); ++i) {
    head.u32(columns[i].tag);
    head.u64(offsets[i]);
    head.u64(columns[i].payload.size());
    head.u32(crc32(columns[i].payload));
  }
  head.u32(crc32(head.buffer()));

  std::string out = head.take();
  out.reserve(cursor);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out.resize(offsets[i], '\0');  // alignment padding
    out += columns[i].payload;
  }
  return out;
}

template <class Schema>
std::string encode(const std::vector<typename Schema::Item>& dataset) {
  constexpr auto& kRows = Schema::kRows;
  std::uint64_t rows = 0;
  for (const auto& item : dataset) rows += item.records.size();

  ckpt::Writer keys, counts, tags;
  std::array<ckpt::Writer, kRows.size()> row_cols;
  keys.reserve(dataset.size() * 4);
  counts.reserve(dataset.size() * 8);
  for (std::size_t c = 0; c < kRows.size(); ++c)
    row_cols[c].reserve(rows * kRows[c].width);

  for (const auto& item : dataset) {
    keys.u32(Schema::group_key(item));
    counts.u64(item.records.size());
    if constexpr (Schema::kGroupTags != 0) {
      tags.u64(item.meta.tags.size());
      for (core::TagId tag : item.meta.tags)
        tags.str(core::tag_pool().name_of(tag));
    }
    for (const auto& rec : item.records) {
      const typename Schema::Row row = Schema::put(rec);
      for (std::size_t c = 0; c < kRows.size(); ++c) {
        switch (kRows[c].width) {
          case 1: row_cols[c].u8(std::uint8_t(row[c])); break;
          case 4: row_cols[c].u32(std::uint32_t(row[c])); break;
          default: row_cols[c].u64(row[c]);
        }
      }
    }
  }

  std::vector<Column> cols;
  cols.push_back({Schema::kGroupKey, keys.take()});
  cols.push_back({kColGroupRows, counts.take()});
  if (Schema::kGroupTags != 0)
    cols.push_back({Schema::kGroupTags, tags.take()});
  for (std::size_t c = 0; c < kRows.size(); ++c)
    cols.push_back({kRows[c].tag, row_cols[c].take()});
  return assemble(Schema::kKind, rows, dataset.size(), std::move(cols));
}

inline std::string encode_echo(const std::vector<atlas::ProbeSeries>& d) {
  return encode<EchoColumns>(d);
}

inline std::string encode_assoc(const std::vector<cdn::AssociationLog>& d) {
  return encode<AssocColumns>(d);
}

}  // namespace dynamips::io::reference
