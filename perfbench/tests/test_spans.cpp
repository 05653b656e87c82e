// Unit tests of the benchmark's own arithmetic: interval unions, the
// self-time fold, the trace reader, the engine-phase closure and the
// result line.

#include <gtest/gtest.h>

#include "replay.hpp"
#include "report.hpp"
#include "spans.hpp"

using namespace perfbench;

TEST(Spans, UnionMergesOverlapsAndGaps) {
  EXPECT_DOUBLE_EQ(union_us({}), 0.0);
  EXPECT_DOUBLE_EQ(union_us({{0, 10}, {5, 15}, {20, 30}}), 25.0);
  EXPECT_DOUBLE_EQ(union_us({{20, 30}, {0, 10}, {2, 3}}), 20.0);
  EXPECT_DOUBLE_EQ(union_us({{0, 10}, {10, 12}}), 12.0);
}

TEST(Spans, FoldGivesSelfTimesOfNestedSpans) {
  // round [0,100) ⊃ select [0,10), exchange [10,80) ⊃ broadcast [10,30),
  // collect [30,75) ⊃ merge [60,70); aggregate [80,100).
  std::vector<Span> spans = {
      {"engine", "round", 0, 100, 0},    {"engine", "select", 0, 10, 0},
      {"engine", "exchange", 10, 70, 0}, {"server", "broadcast", 10, 20, 0},
      {"server", "collect", 30, 45, 0},  {"server", "merge", 60, 10, 0},
      {"engine", "aggregate", 80, 20, 0}};
  const auto self = fold_self_us(spans);
  EXPECT_DOUBLE_EQ(self.at("engine/round"), 0.0);
  EXPECT_DOUBLE_EQ(self.at("engine/select"), 10.0);
  EXPECT_DOUBLE_EQ(self.at("engine/exchange"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("server/broadcast"), 20.0);
  EXPECT_DOUBLE_EQ(self.at("server/collect"), 35.0);
  EXPECT_DOUBLE_EQ(self.at("server/merge"), 10.0);
  EXPECT_DOUBLE_EQ(self.at("engine/aggregate"), 20.0);
  double total = 0.0;
  for (const auto& [k, v] : self) total += v;
  EXPECT_DOUBLE_EQ(total, 100.0);  // self times partition the root span
}

TEST(Spans, FoldSumsRepeatedNamesAndClipsOverhang) {
  std::vector<Span> spans = {{"a", "outer", 0, 50, 0},
                             {"a", "inner", 5, 5, 0},
                             {"a", "inner", 20, 40, 0}};  // overhangs outer
  const auto self = fold_self_us(spans);
  EXPECT_DOUBLE_EQ(self.at("a/inner"), 35.0);
  EXPECT_DOUBLE_EQ(self.at("a/outer"), 15.0);
}

TEST(Spans, ParsesExportedTraceEvents) {
  const std::string json =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"thread 0\"}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"kernel\",\"name\":\"gemm\","
      "\"ts\":12.5,\"dur\":3,\"args\":{\"macs\":4096}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"server\",\"name\":"
      "\"collect\",\"ts\":10,\"dur\":7.25}]}\n";
  const auto spans = parse_trace_events(json);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(span_key(spans[0]), "kernel/gemm");
  EXPECT_DOUBLE_EQ(spans[0].ts_us, 12.5);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 3.0);
  EXPECT_DOUBLE_EQ(spans[0].arg, 4096.0);
  EXPECT_EQ(span_key(spans[1]), "server/collect");
  EXPECT_DOUBLE_EQ(spans[1].dur_us, 7.25);
  EXPECT_DOUBLE_EQ(spans[1].arg, 0.0);
}

TEST(Report, EnginePhasesCloseOnTheRoundWall) {
  HookTimes h;
  h.select_us = 10;
  h.select_end = 110;  // round started at 100
  h.payload = {{115, 135}, {120, 140}};  // 25 µs of union
  h.first_absorb = 190;
  h.absorb_us = 20;
  h.finish_us = 15;
  const EnginePhases p = engine_phases(h, /*probe_us=*/5, 130);
  EXPECT_DOUBLE_EQ(p.payload, 25.0);
  EXPECT_DOUBLE_EQ(p.exchange, 80.0 - 25.0);
  EXPECT_DOUBLE_EQ(p.unaccounted, 130.0 - (10 + 25 + 55 + 20 + 15 + 5));
  EXPECT_DOUBLE_EQ(unaccounted_frac({p}), 0.0);
  const EnginePhases q = engine_phases(h, 5, 140);
  EXPECT_DOUBLE_EQ(unaccounted_frac({p, q}), 10.0 / 270.0);
}

TEST(Report, ResultLineCarriesEveryDigit) {
  const std::string line =
      result_json(true, 12, 0, {{"round_ms_p50", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"round_ms_p50\": {\"value\": "
            "0.33333333333333331, \"unit\": \"ms\"}}}");
}

TEST(Spans, QuantilesInterpolate) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.9), 9.0);
}

TEST(Replay, LayerKindsAreSnakeCase) {
  EXPECT_EQ(layer_kind("Conv2d"), "conv2d");
  EXPECT_EQ(layer_kind("GlobalAvgPool"), "global_avg_pool");
  EXPECT_EQ(layer_kind("ReLU"), "relu");
  EXPECT_EQ(layer_kind("ScaleShift"), "scale_shift");
  EXPECT_EQ(layer_kind("Linear"), "linear");
}
