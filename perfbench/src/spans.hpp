#pragma once

// Time bookkeeping of the benchmark: wall-interval unions, the self-time
// fold over nested spans, the reader for the program's exported trace
// JSON, and quantiles. Everything here is plain data in, plain data out, so
// tests/test_spans.cpp checks it on hand-built inputs.

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Microseconds on the benchmark's wall clock (steady_clock).
double now_us();

/// Half-open wall interval [begin, end), in microseconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the union of `iv` — the wall time during which at least one
/// interval was open. Concurrent calls are measured this way, never summed.
double union_us(std::vector<Interval> iv);

/// One complete span: category, name, start and duration in microseconds,
/// and the optional numeric argument the program attached (0 when none).
struct Span {
  std::string cat;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double arg = 0.0;
};

/// "cat/name" — the key every per-span table uses.
std::string span_key(const Span& s);

/// Self time per "cat/name" for spans recorded on one thread: a span's
/// duration minus the durations of the spans directly nested in it. Spans
/// of one thread nest or are disjoint; an input that partially overlaps is
/// clipped to its enclosing span.
std::map<std::string, double> fold_self_us(std::vector<Span> spans);

/// Complete ("ph":"X") events of a Chrome trace_event JSON document as the
/// program's trace_export_json writes it. Metadata events are skipped.
std::vector<Span> parse_trace_events(std::string_view json);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
