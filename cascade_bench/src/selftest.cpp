#include "selftest.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "core/threadpool.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace cascade_bench {

namespace core = mpcnn::core;

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_sim(const SimFigures& a, const SimFigures& b) {
  return same_bits(a.img_per_s, b.img_per_s) &&
         same_bits(a.p90_ms, b.p90_ms) && same_bits(a.p99_ms, b.p99_ms) &&
         same_bits(a.accuracy, b.accuracy) && a.attempted == b.attempted &&
         a.shed == b.shed;
}

void test_percentiles() {
  expect(nearest_rank(100, 90.0) == 90, "rank of p90 over 100 is 90");
  expect(nearest_rank(100, 50.0) == 50, "rank of p50 over 100 is 50");
  expect(nearest_rank(1, 99.0) == 1, "rank clamps to 1");
  expect(nearest_rank(7, 100.0) == 7, "rank of p100 is n");
  expect(enough_beyond(100, 90.0), "100 samples leave 10 beyond p90");
  expect(!enough_beyond(99, 90.0), "99 samples leave 9 beyond p90");
  expect(enough_beyond(1000, 99.0), "1000 samples leave 10 beyond p99");
  expect(!enough_beyond(999, 99.0), "999 samples leave 9 beyond p99");
  expect(!enough_beyond(0, 50.0), "no samples, no percentile");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const RankSummary s = summarize(v);
  expect(s.count == 100 && s.p50 == 50 && s.p90 == 90 && s.p99 == 99,
         "summarize 1..100 gives 50/90/99");
  expect(s.p90_valid && !s.p99_valid, "validity of p90/p99 over 100");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void test_names() {
  for (const char* ok : {"setup_s", "ref_img_per_s", "bnn.stage01.isolated_us",
                         "9lives", "a-b.c_d"}) {
    expect(valid_metric_name(ok), std::string("valid name ") + ok);
  }
  const std::string long_name(65, 'a');
  for (const std::string& bad :
       {std::string(), std::string("_x"), std::string(".x"),
        std::string("a b"), std::string("a/b"), std::string("x\xc3\xbc"),
        long_name}) {
    expect(!valid_metric_name(bad), "invalid name '" + bad + "'");
  }
  expect(valid_metric_name(std::string(64, 'a')), "64-character name");
  MetricSet m;
  m.add("x", 1.0, "s", Clock::kWall);
  bool threw = false;
  try {
    m.add("x", 2.0, "s", Clock::kWall);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "duplicate metric rejected");
  threw = false;
  try {
    m.add("bad name", 2.0, "s", Clock::kWall);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "malformed metric rejected");
  const std::string line = result_line(true, 3, 0, m);
  expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"x\": {\"value\": 1, \"unit\": \"s\"}}}",
         "result line format: " + line);
}

void test_spans() {
  Tracer t;
  const int root = t.begin("root");
  const int child = t.begin("child");
  t.end(child);
  t.end(root);
  expect(t.spans()[1].parent == root, "child span records its parent");
  expect(same_bits(t.child_total("root"), t.spans()[1].duration()),
         "child_total sums direct children");
  expect(t.child_total("child") == 0.0, "a leaf has no child time");
  bool threw = false;
  const int a = t.begin("a");
  (void)t.begin("b");
  try {
    t.end(a);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "out-of-order span close rejected");
}

/// Runs `pass` at N threads twice, at 1 thread and traced; every run's
/// outputs and simulated figures must match the first bit for bit.
template <class Pass, class RunFn, class CheckFn>
void smoke(const char* name, RunFn run, CheckFn check) {
  const int threads = core::thread_count();
  const Pass first = run(nullptr);
  const Pass again = run(nullptr);
  core::set_thread_count(1);
  const Pass serial = run(nullptr);
  core::set_thread_count(threads);
  Tracer tracer;
  const Pass traced = run(&tracer);
  const std::string w = name;
  expect(same_outputs(first, again) && same_sim(first.sim, again.sim),
         w + ": repeat run bit-identical");
  expect(same_outputs(first, serial) && same_sim(first.sim, serial.sim),
         w + ": 1 thread vs " + std::to_string(threads) + " bit-identical");
  expect(same_outputs(first, traced) && same_sim(first.sim, traced.sim),
         w + ": traced run bit-identical");
  expect(!tracer.spans().empty(), w + ": traced run recorded spans");
  const CheckResult c = check(first);
  expect(c.correct() && c.failed() == 0,
         w + ": output checks pass (mismatches " +
             std::to_string(c.mismatches) + ")");
  expect(first.sim.img_per_s > 0.0 && first.sim.p90_ms > 0.0,
         w + ": simulated figures are positive");
  expect(!first.wall.unit_s.empty() && first.wall.api_s > 0.0,
         w + ": wall samples recorded");
}

}  // namespace

void test_probe() {
  expect(probe_s(1) > 0.0 && probe_s(core::thread_count()) > 0.0,
         "the speed probe takes time on 1 and N threads");
  expect(std::strcmp(clock_name(Clock::kRef), "ref") == 0,
         "the ref clock prints as ref");
}

int run_selftest(double host_s) {
  test_percentiles();
  test_names();
  test_spans();
  test_probe();

  prepare_cache();
  const Ready ready = setup(host_s, nullptr);
  PassSizes sizes;
  sizes.cascade_images = 96;
  sizes.serve_pool = 64;
  sizes.serve_span_images = 160.0;
  sizes.scene_chunks = 1;
  const CascadeInputs cascade = make_cascade_inputs(ready, 7, sizes);
  smoke<CascadePass>(
      "cascade_offline",
      [&](Tracer* t) { return run_cascade_pass(ready, cascade, t); },
      [&](const CascadePass& p) { return check_cascade(ready, cascade, p); });
  const ServeInputs serve = make_serve_inputs(ready, 7, sizes);
  smoke<ServePass>(
      "serve_faulted_fleet",
      [&](Tracer* t) { return run_serve_pass(ready, serve, t); },
      [&](const ServePass& p) { return check_serve(ready, serve, p); });
  const SceneInputs scene = make_scene_inputs(ready, 7, sizes);
  smoke<ScenePass>(
      "scene_cut", [&](Tracer* t) { return run_scene_pass(ready, scene, t); },
      [&](const ScenePass& p) { return check_scene(ready, scene, p); });

  std::printf("selftest: %d of %d checks passed\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace cascade_bench
