// cascade_bench — end-to-end and per-layer benchmark of the cascade on three
// clocks: `wall` (real time of this process), `ref` (wall time rescaled by
// a machine-speed probe, see probe.hpp) and `sim` (the Eq. (3)–(5) fabric
// model plus a pinned host seconds-per-image).
//
//   cascade_bench run --workload W --seed N --seconds S --trace 0|1
//                     --host-s-per-image X [--out-dir DIR]
//   cascade_bench selftest --host-s-per-image X
//   cascade_bench prepare --host-s-per-image X
//
// `run` prints a human-readable report, writes a detailed JSON record (and
// with --trace 1 a Chrome trace) under --out-dir, and prints as its last
// stdout line one JSON object {correct, attempted, failed, metrics}.
// cascade_bench/run.py builds the binary, pins the environment and is the
// command to use.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/threadpool.hpp"
#include "data/hd_scene.hpp"
#include "layers.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

using namespace cascade_bench;
namespace core = mpcnn::core;

namespace {

/// Set-ups per untimed run, spread over its timed phase; setup_s is
/// their median.
constexpr int kSetups = 9;

struct Options {
  std::string command;
  Workload workload = Workload::kCascadeOffline;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double host_s = 0.0;
  std::string out_dir = ".";
};

Options parse(int argc, char** argv) {
  MPCNN_CHECK(argc >= 2,
              "usage: cascade_bench run|selftest|prepare [options]");
  Options o;
  o.command = argv[1];
  MPCNN_CHECK(o.command == "run" || o.command == "selftest" ||
                  o.command == "prepare",
              "unknown command '" << o.command << "'");
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    MPCNN_CHECK(i + 1 < argc, key << " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = parse_workload(value);
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      MPCNN_CHECK(value == "0" || value == "1", "--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--host-s-per-image") {
      o.host_s = std::stod(value);
    } else if (key == "--out-dir") {
      o.out_dir = value;
    } else {
      MPCNN_CHECK(false, "unknown option " << key);
    }
  }
  MPCNN_CHECK(o.host_s > 0.0, "--host-s-per-image must be > 0");
  MPCNN_CHECK(o.seconds > 0.0, "--seconds must be > 0");
  return o;
}

/// Refuses to measure anything but an unsanitised Release build under
/// the pinned environment run.py sets up.
void require_hermetic() {
  MPCNN_CHECK(std::strcmp(CASCADE_BENCH_BUILD_TYPE, "Release") == 0,
              "refusing to benchmark a " << CASCADE_BENCH_BUILD_TYPE
                                         << " build (Release only)");
  MPCNN_CHECK(std::strlen(CASCADE_BENCH_SANITIZE) == 0,
              "refusing to benchmark a sanitizer build ("
                  << CASCADE_BENCH_SANITIZE << ")");
  const char* tune = std::getenv("MPCNN_TUNE");
  MPCNN_CHECK(tune != nullptr && std::strcmp(tune, "off") == 0,
              "MPCNN_TUNE must be 'off' (a tuning cache would be loaded)");
  for (const char* name : {"MPCNN_ISA", "MPCNN_BNN_EXEC", "MPCNN_INTEGRITY",
                           "MPCNN_TUNE_CACHE"}) {
    MPCNN_CHECK(std::getenv(name) == nullptr, name << " must be unset");
  }
  MPCNN_CHECK(std::getenv("MPCNN_THREADS") != nullptr,
              "MPCNN_THREADS must be set");
}

/// One timed unit: a fresh-session run of one slice of the workload's
/// input (the whole cascade pass, one serve replay, one scene chunk).
struct UnitRun {
  bool same = false;  ///< outputs equal the reference pass's slice
  WallSamples wall;
};

struct TimedUnits {
  double items = 0.0;           ///< images of one cycle through the units
  double wall_s = 0.0;          ///< Σ over units of the median API time
  double ref_s = 0.0;           ///< the same on the ref clock
  std::int64_t runs = 0;        ///< unit runs timed
  std::vector<double> unit_s;   ///< the workload's latency samples
  std::vector<double> probe_s;  ///< one probe after every unit run
  int diverged = 0;
};

/// Runs units 0, 1, …, count−1, 0, … until `seconds` of wall time are
/// spent (at least one cycle), timing the machine-speed probe after each
/// unit run and calling `between(elapsed_s)` after that, outside every
/// timed call.  A unit's wall time is the median of its runs; its ref
/// time is the median of (run ÷ the probe right after it) × kProbeRefS.
template <class RunFn, class BetweenFn>
TimedUnits timed_units(Dim count, RunFn run, double seconds,
                       BetweenFn between) {
  TimedUnits t;
  const int threads = mpcnn::core::thread_count();
  std::vector<std::vector<double>> wall(static_cast<std::size_t>(count));
  std::vector<std::vector<double>> ref(static_cast<std::size_t>(count));
  std::vector<Dim> items(static_cast<std::size_t>(count), 0);
  const double start = wall_now();
  for (Dim i = 0; i < count || wall_now() - start < seconds; ++i) {
    const std::size_t u = static_cast<std::size_t>(i % count);
    const UnitRun r = run(static_cast<Dim>(u));
    const double probe = probe_s(threads);
    t.diverged += !r.same;
    wall[u].push_back(r.wall.api_s);
    ref[u].push_back(r.wall.api_s / probe * kProbeRefS);
    t.probe_s.push_back(probe);
    items[u] = r.wall.items;
    t.unit_s.insert(t.unit_s.end(), r.wall.unit_s.begin(),
                    r.wall.unit_s.end());
    ++t.runs;
    between(wall_now() - start);
  }
  for (std::size_t u = 0; u < wall.size(); ++u) {
    t.items += static_cast<double>(items[u]);
    t.wall_s += median(wall[u]);
    t.ref_s += median(ref[u]);
  }
  return t;
}

using Extras = std::vector<std::pair<std::string, double>>;

/// Counters of a serve pass summed over its replays.
struct ServeTotals {
  double requests = 0, host_routed = 0, batches = 0, filled = 0;
  double redispatched = 0, host_fallback = 0, probes = 0, dispatches = 0;
  double served_batches = 0, timeouts = 0, retries = 0, scrub_repairs = 0;
  double sdc_detected = 0, sdc_corrected = 0, canary_runs = 0;
};

ServeTotals serve_totals(const ServePass& pass) {
  ServeTotals t;
  for (const ServeReplay& replay : pass.replays) {
    const core::ServeReport& r = replay.report;
    t.requests += static_cast<double>(replay.results.size());
    t.host_routed += r.total.host_routed;
    t.batches += r.batches;
    t.filled += r.mean_batch_fill * r.batches;
    t.redispatched += r.fleet.redispatched_batches;
    t.host_fallback += r.fleet.host_fallback_images;
    t.probes += r.fleet.probes;
    t.dispatches += r.fleet.dispatches;
    t.served_batches += replay.served_batches;
    t.timeouts += r.supervisor.watchdog_timeouts;
    t.retries += r.supervisor.retries;
    t.scrub_repairs += r.supervisor.scrub_repairs;
    t.sdc_detected += r.supervisor.sdc_detected;
    t.sdc_corrected += r.supervisor.sdc_corrected;
    t.canary_runs += r.supervisor.canary_runs;
  }
  return t;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  MPCNN_CHECK(out.good(), "cannot write " << path);
  out << text;
}

std::string run_stem(const Options& o) {
  return (std::filesystem::path(o.out_dir) /
          (std::string(workload_name(o.workload)) + "_seed" +
           std::to_string(o.seed) + (o.trace ? "_trace" : "")))
      .string();
}

int finish(const Options& o, const CheckResult& check, const MetricSet& m,
           Extras extras) {
  const Identity id = identify();
  extras.emplace_back("shed", static_cast<double>(check.shed));
  extras.emplace_back("mismatches", static_cast<double>(check.mismatches));
  extras.emplace_back("diverged_passes",
                      static_cast<double>(check.diverged_passes));
  extras.emplace_back(
      "failed_frac", static_cast<double>(check.failed()) /
                         static_cast<double>(check.attempted));
  std::printf("identity: nproc %d, cpu '%s', isa %s, threads %d\n", id.nproc,
              id.cpu_model.c_str(), id.isa.c_str(), id.threads);
  for (const auto& [k, v] : id.env) {
    std::printf("  env %s=%s\n", k.c_str(), v.c_str());
  }
  std::printf("%s seed %llu (%s run):\n", workload_name(o.workload),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  print_metrics(m);
  for (const auto& [k, v] : extras) {
    std::printf("  %-34s %16.6g\n", k.c_str(), v);
  }
  std::printf("output checks: attempted %lld, shed %lld, mismatches %lld, "
              "diverged passes %lld, failed_frac %.6g\n",
              static_cast<long long>(check.attempted),
              static_cast<long long>(check.shed),
              static_cast<long long>(check.mismatches),
              static_cast<long long>(check.diverged_passes),
              extras.back().second);
  for (const std::string& note : check.notes) {
    std::printf("check failed: %s\n", note.c_str());
  }
  write_file(run_stem(o) + ".json",
             detail_json(workload_name(o.workload), o.seed, o.trace, id, m,
                         extras));
  std::printf("%s\n", result_line(check.correct(), check.attempted,
                                  check.failed(), m)
                          .c_str());
  return 0;
}

int run_untraced(const Options& o) {
  prepare_cache();
  // Set-ups after the first are spread evenly over the timed phase (each
  // built and dropped between two units), so their median samples the
  // same stretch of machine time as the throughput figure.
  std::vector<double> setup_samples;
  const auto timed_setup = [&] {
    const double t0 = wall_now();
    Ready r = setup(o.host_s, nullptr);
    build_sessions(r, o.workload);
    setup_samples.push_back(wall_now() - t0);
    return r;
  };
  const auto spread_setups = [&](double elapsed) {
    const int due = 1 + static_cast<int>((kSetups - 1) * elapsed / o.seconds);
    while (static_cast<int>(setup_samples.size()) < std::min(due, kSetups)) {
      (void)timed_setup();
    }
  };
  const Ready ready = timed_setup();
  // Each case runs one untimed reference pass (warm-up; its outputs are
  // the ones checked and its simulated figures the ones reported), then
  // the timed units, each compared bit-for-bit with the reference.
  const PassSizes sizes;
  CheckResult check;
  SimFigures sim;
  TimedUnits timed;
  Extras extras;
  switch (o.workload) {
    case Workload::kCascadeOffline: {
      const CascadeInputs in = make_cascade_inputs(ready, o.seed, sizes);
      const CascadePass ref = run_cascade_pass(ready, in, nullptr);
      timed = timed_units(
          1,
          [&](Dim) {
            CascadePass p = run_cascade_pass(ready, in, nullptr);
            return UnitRun{same_outputs(ref, p), std::move(p.wall)};
          },
          o.seconds, spread_setups);
      check = check_cascade(ready, in, ref);
      sim = ref.sim;
      Dim reruns = 0;
      for (const auto& r : ref.results) reruns += r.rerun;
      extras = {{"reruns", static_cast<double>(reruns)}};
      break;
    }
    case Workload::kServeFaultedFleet: {
      const ServeInputs in = make_serve_inputs(ready, o.seed, sizes);
      const ServePass ref = run_serve_pass(ready, in, nullptr);
      timed = timed_units(
          static_cast<Dim>(in.traces.size()),
          [&](Dim k) {
            ServePass p = run_serve_pass(ready, in, nullptr, k, 1);
            return UnitRun{
                same_outputs(ref.replays[static_cast<std::size_t>(k)],
                             p.replays.front()),
                std::move(p.wall)};
          },
          o.seconds, spread_setups);
      check = check_serve(ready, in, ref);
      sim = ref.sim;
      const ServeTotals st = serve_totals(ref);
      extras = {{"requests", st.requests},
                {"host_routed", st.host_routed},
                {"redispatched_batches", st.redispatched},
                {"watchdog_timeouts", st.timeouts},
                {"sdc_detected", st.sdc_detected},
                {"sdc_corrected", st.sdc_corrected}};
      break;
    }
    case Workload::kSceneCut: {
      const SceneInputs in = make_scene_inputs(ready, o.seed, sizes);
      const ScenePass ref = run_scene_pass(ready, in, nullptr);
      const Dim chunk = SceneInputs::kChunkFrames;
      timed = timed_units(
          static_cast<Dim>(in.frames.size()) / chunk,
          [&](Dim c) {
            ScenePass p =
                run_scene_pass(ready, in, nullptr, true, c * chunk, chunk);
            return UnitRun{same_verdicts(ref, p, c * chunk),
                           std::move(p.wall)};
          },
          o.seconds, spread_setups);
      check = check_scene(ready, in, ref);
      sim = ref.sim;
      const core::SceneReport& r = ref.report;
      extras = {{"frames", static_cast<double>(r.frames)},
                {"sim_frames_per_s", r.effective_fps},
                {"hit_rate", r.hit_rate},
                {"escalation_rate", r.escalation_rate}};
      break;
    }
  }
  spread_setups(o.seconds);
  check.diverged_passes = timed.diverged;
  MetricSet m;
  m.add("setup_s", median(setup_samples), "s", Clock::kWall, kSetups);
  m.add("ref_img_per_s", timed.items / timed.ref_s, "img/s", Clock::kRef,
        timed.runs);
  m.add("sim_img_per_s", sim.img_per_s, "img/s", Clock::kSim,
        sim.attempted);
  m.add("peak_rss_mb", peak_rss_mb(), "MB", Clock::kNone);
  // Latency tails and accuracy: printed and recorded, not bounded (see
  // README.md for why they are not end-to-end metrics).
  const RankSummary unit = summarize(timed.unit_s);
  extras.emplace_back("timed_units", timed.runs);
  extras.emplace_back("wall_img_per_s", timed.items / timed.wall_s);
  extras.emplace_back("probe_median_ms", 1e3 * median(timed.probe_s));
  extras.emplace_back("wall_p50_ms", 1e3 * unit.p50);
  if (unit.p90_valid) extras.emplace_back("wall_p90_ms", 1e3 * unit.p90);
  extras.emplace_back("wall_latency_samples", unit.count);
  extras.emplace_back("sim_p90_ms", sim.p90_ms);
  if (sim.p99_valid) extras.emplace_back("sim_p99_ms", sim.p99_ms);
  extras.emplace_back("sim_latency_samples", sim.p90_samples);
  if (o.workload != Workload::kSceneCut) {
    extras.emplace_back("accuracy", sim.accuracy);
  }
  return finish(o, check, m, std::move(extras));
}

/// Images the traced run's layer sweep drives: the workload's own inputs
/// (scene tiles cropped from one frame per cut for scene_cut).
std::vector<Tensor> sweep_images(Workload w, const CascadeInputs& cascade,
                                 const ServeInputs& serve,
                                 const SceneInputs& scene) {
  if (w == Workload::kCascadeOffline) return cascade.images;
  if (w == Workload::kServeFaultedFleet) return serve.pool;
  std::vector<Tensor> tiles;
  const auto grid = mpcnn::data::tile_grid(scene.height, scene.width, 64, 8);
  Tensor frame;
  for (Dim f = 0; f < static_cast<Dim>(scene.frames.size()) &&
                  tiles.size() < 128;
       f += 4) {
    scene.load_frame(f, frame);
    for (const auto& g : grid) tiles.push_back(mpcnn::data::extract_tile(frame, g));
  }
  return tiles;
}

int run_traced(const Options& o) {
  prepare_cache();
  Tracer tracer;
  MetricSet m;
  const Ready ready = setup(o.host_s, &tracer);
  for (const char* step :
       {"setup.data_gen", "setup.compiled_bnn", "setup.train_scores",
        "setup.dmu_fit", "setup.finn_design", "setup.host_model"}) {
    m.add(std::string(step) + "_s", tracer.total(step), "s", Clock::kWall, 1);
  }
  const PassSizes sizes;
  const CascadeInputs cascade = make_cascade_inputs(ready, o.seed, sizes);
  const ServeInputs serve = make_serve_inputs(ready, o.seed, sizes);
  const SceneInputs scene = make_scene_inputs(ready, o.seed, sizes);
  layer_sweep(ready, sweep_images(o.workload, cascade, serve, scene), m);

  // One traced pass of every pipeline on this seed's inputs.
  const CascadePass cp = run_cascade_pass(ready, cascade, &tracer);
  const ServePass sp = run_serve_pass(ready, serve, &tracer);
  const ScenePass scp = run_scene_pass(ready, scene, &tracer);

  Dim reruns = 0, wasted = 0;
  for (const auto& r : cp.results) {
    if (!r.rerun) continue;
    ++reruns;
    wasted += r.bnn_label ==
              cascade.labels[static_cast<std::size_t>(r.image_id)];
  }
  const double n_img = static_cast<double>(cp.results.size());
  m.add("dmu.rerun_ratio", static_cast<double>(reruns) / n_img, "frac",
        Clock::kNone, cp.results.size());
  m.add("dmu.rerun_err_ratio",
        static_cast<double>(wasted) / static_cast<double>(reruns), "frac",
        Clock::kNone, reruns);

  m.add("stream.submit_us", 1e6 * median(cp.submit_s), "us", Clock::kWall,
        cp.submit_s.size());
  m.add("stream.dispatch_ms", 1e3 * median(cp.wall.unit_s), "ms",
        Clock::kWall, cp.wall.unit_s.size());
  m.add("stream.self_frac", 1.0 - tracer.child_total("stream.replay") /
                                      tracer.total("stream.dispatch"),
        "frac", Clock::kWall, cp.wall.unit_s.size());
  const ServeTotals st = serve_totals(sp);
  m.add("stream.watchdog_timeouts", st.timeouts, "count", Clock::kSim);
  m.add("stream.retries", st.retries, "count", Clock::kSim);
  m.add("stream.scrub_repairs", st.scrub_repairs, "count", Clock::kSim);

  m.add("serve.submit_us", 1e6 * median(sp.wall.unit_s), "us", Clock::kWall,
        sp.wall.unit_s.size());
  m.add("serve.finish_s", sp.finish_s, "s", Clock::kWall, sp.replays.size());
  m.add("serve.self_s", sp.finish_s - tracer.child_total("serve.replay"), "s",
        Clock::kWall, sp.replays.size());
  m.add("serve.batches", st.batches, "count", Clock::kSim);
  m.add("serve.mean_batch_fill", st.filled / st.batches, "img", Clock::kSim);
  m.add("serve.host_routed", st.host_routed, "count", Clock::kSim);
  m.add("fleet.redispatched_batches", st.redispatched, "count", Clock::kSim);
  m.add("fleet.host_fallback_images", st.host_fallback, "count",
        Clock::kSim);
  m.add("fleet.probes", st.probes, "count", Clock::kSim);
  m.add("fleet.useful_frac", st.served_batches / st.dispatches, "frac",
        Clock::kSim);
  m.add("integrity.sdc_detected", st.sdc_detected, "count", Clock::kSim);
  m.add("integrity.sdc_corrected", st.sdc_corrected, "count", Clock::kSim);
  m.add("integrity.canary_runs", st.canary_runs, "count", Clock::kSim);

  std::vector<double> hit_frames, cut_frames;
  for (std::size_t f = 0; f < scp.frame_misses.size(); ++f) {
    (scp.frame_misses[f] == 0 ? hit_frames : cut_frames)
        .push_back(scp.wall.unit_s[f]);
  }
  const double tiles = static_cast<double>(scp.report.stats.tiles);
  m.add("scene.hit_frame_ms", 1e3 * median(hit_frames), "ms", Clock::kWall,
        hit_frames.size());
  m.add("scene.cut_frame_ms", 1e3 * median(cut_frames), "ms", Clock::kWall,
        cut_frames.size());
  m.add("scene.tile_prep_us", 1e6 * tracer.total("scene.tile_prep") / tiles,
        "us", Clock::kWall, scp.report.stats.tiles);
  m.add("scene.cache_find_us", 1e6 * tracer.total("scene.cache_find") / tiles,
        "us", Clock::kWall, scp.report.stats.tiles);
  m.add("scene.hit_rate", scp.report.hit_rate, "frac", Clock::kSim);
  m.add("scene.escalation_rate", scp.report.escalation_rate, "frac",
        Clock::kSim);
  m.add("scene.self_frac", 1.0 - tracer.child_total("scene.replay") /
                                     tracer.total("scene.frame"),
        "frac", Clock::kWall, scp.frame_misses.size());

  // Tracing cost on this workload: the pipeline-call time of one unit
  // (cascade pass, first serve replay, first four scene chunks) with
  // spans on versus off, alternating, five rounds each (medians).
  CheckResult check;
  std::vector<double> on, off;
  for (int round = 0; round < 5; ++round) {
    Tracer scratch;
    switch (o.workload) {
      case Workload::kCascadeOffline:
        off.push_back(run_cascade_pass(ready, cascade, nullptr).wall.api_s);
        on.push_back(run_cascade_pass(ready, cascade, &scratch).wall.api_s);
        break;
      case Workload::kServeFaultedFleet:
        off.push_back(run_serve_pass(ready, serve, nullptr, 0, 1).wall.api_s);
        on.push_back(run_serve_pass(ready, serve, &scratch, 0, 1).wall.api_s);
        break;
      case Workload::kSceneCut: {
        const Dim frames = 4 * SceneInputs::kChunkFrames;
        off.push_back(
            run_scene_pass(ready, scene, nullptr, true, 0, frames).wall.api_s);
        on.push_back(
            run_scene_pass(ready, scene, &scratch, true, 0, frames).wall.api_s);
        break;
      }
    }
  }
  m.add("trace.overhead_frac", median(on) / median(off) - 1.0, "frac",
        Clock::kWall, 5);
  m.add("trace.spans", static_cast<double>(tracer.spans().size()), "count",
        Clock::kNone);

  switch (o.workload) {
    case Workload::kCascadeOffline:
      check = check_cascade(ready, cascade, cp);
      break;
    case Workload::kServeFaultedFleet:
      check = check_serve(ready, serve, sp);
      break;
    case Workload::kSceneCut:
      check = check_scene(ready, scene, scp);
      break;
  }
  const std::string trace_path = run_stem(o) + ".chrome.json";
  tracer.write_chrome(trace_path);
  std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
              tracer.spans().size());
  return finish(o, check, m, {});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    require_hermetic();
    std::filesystem::create_directories(o.out_dir);
    if (o.command == "selftest") return run_selftest(o.host_s);
    if (o.command == "prepare") {
      prepare_cache();
      return 0;
    }
    return o.trace ? run_traced(o) : run_untraced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cascade_bench: %s\n", e.what());
    return 1;
  }
}
