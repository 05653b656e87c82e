#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

EnginePhases engine_phases(const HookTimes& h, double probe_us,
                           double wall_us) {
  EnginePhases p;
  p.wall = wall_us;
  p.select = h.select_us;
  p.payload = union_us(h.payload);
  if (h.select_end >= 0.0 && h.first_absorb >= h.select_end)
    p.exchange = h.first_absorb - h.select_end - p.payload;
  p.absorb = h.absorb_us;
  p.finish = h.finish_us;
  p.probe = probe_us;
  p.unaccounted = wall_us - (p.select + p.payload + p.exchange + p.absorb +
                             p.finish + p.probe);
  return p;
}

double unaccounted_frac(const std::vector<EnginePhases>& rounds) {
  double wall = 0.0;
  double left = 0.0;
  for (const EnginePhases& p : rounds) {
    wall += p.wall;
    left += p.unaccounted;
  }
  return wall > 0.0 ? left / wall : 0.0;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += json_quote(m.name) + ": {\"value\": " + num +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
