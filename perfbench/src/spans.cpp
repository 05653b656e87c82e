#include "spans.hpp"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double union_us(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  double total = 0.0;
  double cur_b = 0.0;
  double cur_e = 0.0;
  bool open = false;
  for (const Interval& i : iv) {
    if (i.end <= i.begin) continue;
    if (!open || i.begin > cur_e) {
      if (open) total += cur_e - cur_b;
      cur_b = i.begin;
      cur_e = i.end;
      open = true;
    } else {
      cur_e = std::max(cur_e, i.end);
    }
  }
  if (open) total += cur_e - cur_b;
  return total;
}

std::string span_key(const Span& s) { return s.cat + "/" + s.name; }

std::map<std::string, double> fold_self_us(std::vector<Span> spans) {
  // Parents sort before their children: earlier start first, and on a tie
  // the longer span first.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  std::map<std::string, double> self;
  struct Open {
    std::size_t idx;
    double end;
  };
  std::vector<Open> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() && stack.back().end <= s.ts_us) stack.pop_back();
    double end = s.ts_us + s.dur_us;
    if (!stack.empty()) {
      end = std::min(end, stack.back().end);
      self[span_key(spans[stack.back().idx])] -= end - s.ts_us;
    }
    self[span_key(s)] += end - s.ts_us;
    stack.push_back({i, end});
  }
  return self;
}

namespace {

// Value of "key": inside one event object. Strings come back
// without their quotes; the program's exporter escapes only '"', '\\' and
// newlines, none of which appear in its span names.
std::string_view field(std::string_view obj, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = obj.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t b = at + pat.size();
  if (b < obj.size() && obj[b] == '"') {
    const std::size_t e = obj.find('"', b + 1);
    return e == std::string_view::npos ? std::string_view{}
                                       : obj.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  return obj.substr(b, e - b);
}

double to_double(std::string_view s) {
  if (s.empty()) return 0.0;
  return std::strtod(std::string(s).c_str(), nullptr);
}

}  // namespace

std::vector<Span> parse_trace_events(std::string_view json) {
  std::vector<Span> out;
  const std::string_view marker = "{\"ph\":\"X\"";
  std::size_t pos = json.find(marker);
  while (pos != std::string_view::npos) {
    const std::size_t next = json.find(marker, pos + marker.size());
    const std::string_view obj =
        json.substr(pos, next == std::string_view::npos ? json.size() - pos
                                                        : next - pos);
    Span s;
    s.cat = std::string(field(obj, "cat"));
    s.name = std::string(field(obj, "name"));
    s.ts_us = to_double(field(obj, "ts"));
    s.dur_us = to_double(field(obj, "dur"));
    const std::size_t args = obj.find("\"args\":{");
    if (args != std::string_view::npos) {
      const std::string_view a = obj.substr(args + 8);
      const std::size_t colon = a.find(':');
      if (colon != std::string_view::npos) {
        std::size_t e = colon + 1;
        while (e < a.size() && a[e] != '}' && a[e] != ',') ++e;
        s.arg = to_double(a.substr(colon + 1, e - colon - 1));
      }
    }
    out.push_back(std::move(s));
    pos = next;
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
