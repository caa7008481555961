#include "stats/ttf.h"

namespace dynamips::stats {

namespace {

struct Mark {
  std::uint64_t hours;
  const char* label;
};

// The tick marks of Fig. 1's x-axis.
constexpr Mark kMarks[] = {
    {1, "1h"},      {6, "6h"},      {12, "12h"},     {24, "1d"},
    {72, "3d"},     {168, "1w"},    {336, "2w"},     {730, "1m"},
    {2190, "3m"},   {4380, "6m"},   {8760, "1y"},    {35040, "4y"},
};

}  // namespace

std::vector<std::uint64_t> fig1_thresholds() {
  std::vector<std::uint64_t> out;
  out.reserve(std::size(kMarks));
  for (const auto& m : kMarks) out.push_back(m.hours);
  return out;
}

const char* duration_label(std::uint64_t hours) {
  for (const auto& m : kMarks)
    if (m.hours == hours) return m.label;
  return "?";
}

}  // namespace dynamips::stats
