#include "core/failpoint.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/parse_number.h"

namespace dynamips::core {

namespace {

using fp_detail::Entry;

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

Status bad_entry(std::string_view entry, std::string_view why) {
  std::string msg = "bad failpoint entry \"";
  msg += entry;
  msg += "\": ";
  msg += why;
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}

/// FNV-1a over the token: any string is a usable probabilistic seed, so
/// `*0.1%seed` means "seeded by the word seed", reproducibly.
std::uint64_t hash_seed_token(std::string_view token) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  auto value = parse_number<std::uint64_t>(text);
  if (value) *out = *value;
  return value.has_value();
}

/// predicate := @A | @A..B | @A.. | *F%SEED  (empty = fire on every hit)
Status parse_predicate(std::string_view entry, std::string_view pred,
                       Entry* e) {
  if (pred.empty()) return Status::Ok();
  if (pred.front() == '@') {
    pred.remove_prefix(1);
    std::size_t dots = pred.find("..");
    std::string_view from_text =
        dots == std::string_view::npos ? pred : pred.substr(0, dots);
    if (!parse_u64(trim(from_text), &e->from) || e->from == 0)
      return bad_entry(entry, "@ wants a positive hit number");
    if (dots == std::string_view::npos) {
      e->to = e->from;  // @N: exactly the Nth hit
    } else {
      std::string_view to_text = trim(pred.substr(dots + 2));
      if (to_text.empty()) {
        e->to = ~0ull;  // @N..: open-ended
      } else if (!parse_u64(to_text, &e->to) || e->to < e->from) {
        return bad_entry(entry, "@A..B wants B >= A");
      }
    }
    return Status::Ok();
  }
  if (pred.front() == '*') {
    pred.remove_prefix(1);
    std::size_t pct = pred.find('%');
    if (pct == std::string_view::npos)
      return bad_entry(entry, "*F needs %SEED (determinism is the point)");
    char* end = nullptr;
    std::string frac_text(trim(pred.substr(0, pct)));
    double fraction = std::strtod(frac_text.c_str(), &end);
    if (frac_text.empty() || end != frac_text.c_str() + frac_text.size() ||
        fraction <= 0.0 || fraction > 1.0)
      return bad_entry(entry, "*F wants a fraction in (0, 1]");
    std::string_view seed_text = trim(pred.substr(pct + 1));
    if (seed_text.empty()) return bad_entry(entry, "%SEED must not be empty");
    if (!parse_u64(seed_text, &e->seed)) e->seed = hash_seed_token(seed_text);
    e->probabilistic = true;
    e->threshold = fraction >= 1.0
                       ? ~0ull
                       : static_cast<std::uint64_t>(
                             fraction * 18446744073709551616.0 /* 2^64 */);
    return Status::Ok();
  }
  return bad_entry(entry, "predicate must start with @ or *");
}

/// action := off | err | err(ERRNO) | short | delay(Nms), with the
/// predicate (if any) trailing. Returns true-armed entries through `out`;
/// `off` parses fine but arms nothing.
Status parse_action(std::string_view entry, std::string_view text, Entry* e,
                    bool* armed) {
  *armed = true;
  std::size_t pred_at = text.find_first_of("@*");
  std::string_view action = trim(text.substr(
      0, pred_at == std::string_view::npos ? text.size() : pred_at));
  std::string_view pred =
      pred_at == std::string_view::npos ? std::string_view() : text.substr(pred_at);

  if (action == "off") {
    if (!pred.empty()) return bad_entry(entry, "off takes no predicate");
    *armed = false;
    return Status::Ok();
  }
  if (action == "err") {
    e->hit.kind = FailpointHit::Kind::kError;
    e->hit.err = EIO;
  } else if (action.starts_with("err(") && action.ends_with(")")) {
    std::string_view name = trim(action.substr(4, action.size() - 5));
    int err = parse_errno_name(name);
    if (err == 0) return bad_entry(entry, "unknown errno name");
    e->hit.kind = FailpointHit::Kind::kError;
    e->hit.err = err;
  } else if (action == "short") {
    e->hit.kind = FailpointHit::Kind::kShortWrite;
  } else if (action.starts_with("delay(") && action.ends_with("ms)")) {
    std::string_view ms = trim(action.substr(6, action.size() - 9));
    if (!parse_u64(ms, &e->hit.delay_ms))
      return bad_entry(entry, "delay(Nms) wants an integer millisecond count");
    e->hit.kind = FailpointHit::Kind::kDelay;
  } else {
    return bad_entry(entry, "action must be off, err, err(ERRNO), short, "
                            "or delay(Nms)");
  }
  return parse_predicate(entry, trim(pred), e);
}

}  // namespace

int parse_errno_name(std::string_view name) {
  if (name == "EIO") return EIO;
  if (name == "ENOSPC") return ENOSPC;
  if (name == "EAGAIN") return EAGAIN;
  if (name == "EPIPE") return EPIPE;
  if (name == "ECONNRESET") return ECONNRESET;
  if (name == "ECONNABORTED") return ECONNABORTED;
  if (name == "EINTR") return EINTR;
  if (name == "EMFILE") return EMFILE;
  if (name == "EBADF") return EBADF;
  return 0;
}

Status arm_failpoints(std::string_view spec) {
  // Parse into a staging map first: a bad entry must not clobber (or
  // half-replace) the current arming.
  std::map<std::string, Entry, std::less<>> staged;
  std::string_view rest = spec;
  while (!rest.empty()) {
    std::size_t sep = rest.find(';');
    std::string_view entry = trim(rest.substr(0, sep));
    rest = sep == std::string_view::npos ? std::string_view()
                                         : rest.substr(sep + 1);
    if (entry.empty()) continue;
    std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0)
      return bad_entry(entry, "expected name=action");
    std::string name(trim(entry.substr(0, eq)));
    Entry e;
    bool armed = false;
    if (Status st = parse_action(entry, trim(entry.substr(eq + 1)), &e,
                                 &armed);
        !st.ok())
      return st;
    if (armed)
      staged[name] = e;
    else
      staged.erase(name);
  }

  fp_detail::Registry& reg = fp_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.entries = std::move(staged);
  fp_detail::g_armed.store(reg.entries.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status arm_failpoints_from_env() {
  const char* spec = std::getenv("DYNAMIPS_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return Status::Ok();
  return arm_failpoints(spec);
}

void disarm_failpoints() {
  fp_detail::Registry& reg = fp_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.entries.clear();
  fp_detail::g_armed.store(0, std::memory_order_relaxed);
}

std::uint64_t failpoint_fired(std::string_view name) {
  fp_detail::Registry& reg = fp_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.entries.find(name);
  return it == reg.entries.end() ? 0 : it->second.fired;
}

std::string failpoint_report() {
  fp_detail::Registry& reg = fp_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string out;
  for (const auto& [name, e] : reg.entries) {
    if (!out.empty()) out += "; ";
    out += name;
    out += ": hits=";
    out += std::to_string(e.count);
    out += " fired=";
    out += std::to_string(e.fired);
  }
  return out;
}

}  // namespace dynamips::core
