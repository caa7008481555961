#include "io/results_io.h"

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace dynamips::io {

namespace {

/// The one place the CSV writers format text: each row's fields are
/// appended to a buffer — integers and doubles through std::to_chars, the
/// doubles as "%g" at precision 6, the text a default std::ostream prints —
/// and the buffer reaches the stream in 64 KiB blocks and once at the end.
class CsvRows {
 public:
  CsvRows(std::ostream& os, std::string_view header) : os_(os) {
    buf_.reserve(kBlock + 1024);
    buf_ += header;
    buf_ += '\n';
  }
  ~CsvRows() { os_.write(buf_.data(), std::streamsize(buf_.size())); }
  CsvRows(const CsvRows&) = delete;
  CsvRows& operator=(const CsvRows&) = delete;

  template <class First, class... Rest>
  void row(const First& first, const Rest&... rest) {
    put(first);
    ((buf_ += ',', put(rest)), ...);
    buf_ += '\n';
    if (buf_.size() >= kBlock) {
      os_.write(buf_.data(), std::streamsize(buf_.size()));
      buf_.clear();
    }
  }

 private:
  static constexpr std::size_t kBlock = 64 * 1024;

  void put(std::string_view text) { buf_ += text; }
  void put(double v) {
    // A whole number of magnitude below 1e6 prints under "%g" as that
    // integer's digits (no point, no exponent); the integer conversion is
    // several times faster, and fig23's durations are all whole days.
    if (v > -1e6 && v < 1e6) {
      const auto whole = std::int32_t(v);
      if (double(whole) == v && !(whole == 0 && std::signbit(v))) {
        put(whole);
        return;
      }
    }
    char tmp[32];
    buf_.append(tmp, std::to_chars(tmp, tmp + sizeof tmp, v,
                                   std::chars_format::general, 6)
                         .ptr);
  }
  template <std::integral T>
  void put(T v) {
    char tmp[24];
    buf_.append(tmp, std::to_chars(tmp, tmp + sizeof tmp, v).ptr);
  }

  std::ostream& os_;
  std::string buf_;
};

const std::string& name_of(const std::map<bgp::Asn, std::string>& names,
                           bgp::Asn asn) {
  static const std::string kUnknown = "unknown";
  auto it = names.find(asn);
  return it == names.end() ? kUnknown : it->second;
}

void write_one_curve(CsvRows& out, const std::string& as_name,
                     const char* split,
                     const stats::TotalTimeFraction& ttf) {
  if (ttf.empty()) return;
  auto thresholds = stats::fig1_thresholds();
  auto curve = ttf.cumulative(thresholds);
  for (std::size_t i = 0; i < thresholds.size(); ++i)
    out.row(as_name, split, thresholds[i], curve[i]);
}

}  // namespace

void write_duration_curves_csv(std::ostream& os,
                               const core::AtlasStudy& study) {
  CsvRows out(os, "as,split,threshold_hours,cumulative_ttf");
  for (const auto& [asn, d] : study.durations) {
    const std::string& name = name_of(study.as_names, asn);
    write_one_curve(out, name, "v4_nds", d.v4_nds);
    write_one_curve(out, name, "v4_ds", d.v4_ds);
    write_one_curve(out, name, "v6", d.v6);
  }
}

void write_cpl_csv(std::ostream& os, const core::AtlasStudy& study) {
  CsvRows out(os, "as,cpl,changes,probes");
  for (const auto& [asn, s] : study.spatial) {
    const std::string& name = name_of(study.as_names, asn);
    for (int c = 0; c <= 64; ++c) {
      if (s.cpl.changes[std::size_t(c)] == 0) continue;
      out.row(name, c, s.cpl.changes[std::size_t(c)],
              s.cpl.probes[std::size_t(c)]);
    }
  }
}

void write_bgp_moves_csv(std::ostream& os, const core::AtlasStudy& study) {
  CsvRows out(os, "as,pct_diff_24,pct_diff_bgp_v4,pct_diff_bgp_v6");
  for (const auto& [asn, s] : study.spatial)
    out.row(name_of(study.as_names, asn), s.pct_v4_diff_24(),
            s.pct_v4_diff_bgp(), s.pct_v6_diff_bgp());
}

void write_inference_csv(std::ostream& os, const core::AtlasStudy& study) {
  CsvRows out(os, "as,inferred_len,probes");
  for (const auto& [asn, infs] : study.subscriber_inference) {
    std::map<int, int> hist;
    for (const auto& inf : infs) ++hist[inf.inferred_len];
    for (const auto& [len, count] : hist)
      out.row(name_of(study.as_names, asn), len, count);
  }
}

void write_assoc_durations_csv(std::ostream& os,
                               const core::CdnStudy& study) {
  CsvRows out(os, "asn,name,mobile,duration_days");
  for (const auto& [asn, stats] : study.analyzer.by_asn()) {
    static const std::string kUnknown = "?";
    auto it = study.asn_names.find(asn);
    const std::string& name =
        it == study.asn_names.end() ? kUnknown : it->second;
    for (double d : stats.durations_days)
      out.row(asn, name, stats.mobile ? 1 : 0, d);
  }
}

void write_degrees_csv(std::ostream& os, const core::CdnStudy& study) {
  CsvRows out(os, "degree,mobile");
  for (const auto& [degree, mobile] : study.analyzer.degrees())
    out.row(degree, mobile ? 1 : 0);
}

void write_zero_boundaries_csv(std::ostream& os,
                               const core::CdnStudy& study) {
  CsvRows out(os, "registry,mobile,boundary,fraction,count");
  for (const auto& [cls, z] : study.analyzer.zero_counts()) {
    for (auto boundary :
         {core::ZeroBoundary::kNone, core::ZeroBoundary::k60,
          core::ZeroBoundary::k56, core::ZeroBoundary::k52,
          core::ZeroBoundary::k48}) {
      out.row(bgp::registry_name(cls.registry), cls.mobile ? 1 : 0,
              core::zero_boundary_name(boundary), z.fraction(boundary),
              z.counts[std::size_t(boundary)]);
    }
  }
}

}  // namespace dynamips::io
