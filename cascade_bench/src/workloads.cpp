#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "core/threadpool.hpp"
#include "data/hd_scene.hpp"
#include "data/scene_trace.hpp"
#include "report.hpp"

namespace cascade_bench {

namespace core = mpcnn::core;
namespace data = mpcnn::data;

namespace {

constexpr Dim kCascadeBatch = 32;
constexpr Dim kServeBatch = 16;
constexpr Dim kTenants = 4;
constexpr char kHostModel = 'A';

std::uint64_t mix64(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

core::WorkbenchConfig bench_config() {
  core::WorkbenchConfig config;
  config.cache_dir = "mpcnn_cache_bench";  // under MPCNN_CACHE_DIR
  config.verbose = false;
  return config;
}

int argmax(const std::vector<std::int32_t>& scores) {
  return static_cast<int>(std::distance(
      scores.begin(), std::max_element(scores.begin(), scores.end())));
}

std::vector<float> to_float(const std::vector<std::int32_t>& raw) {
  return std::vector<float>(raw.begin(), raw.end());
}

/// BNN scores of every image, fanned out per image over the pool the way
/// StreamSession dispatches a batch.
std::vector<std::vector<std::int32_t>> bnn_scores(
    const mpcnn::bnn::CompiledBnn& bnn,
    const std::vector<const Tensor*>& images) {
  std::vector<std::vector<std::int32_t>> out(images.size());
  core::parallel_for(0, static_cast<std::int64_t>(images.size()), 1,
                     [&](std::int64_t i0, std::int64_t i1) {
                       for (std::int64_t i = i0; i < i1; ++i) {
                         out[static_cast<std::size_t>(i)] =
                             mpcnn::bnn::run_reference(
                                 bnn, *images[static_cast<std::size_t>(i)]);
                       }
                     });
  return out;
}

int host_label(const Ready& ready, const Tensor& image) {
  return ready.host->predict(image).front();
}

/// Replays one batch's cascade through the layers' public functions
/// under "bnn" / "dmu" / "nn" spans (the traced run's layer attribution).
void replay_cascade(const Ready& ready, const std::vector<const Tensor*>& batch,
                    Tracer* tracer) {
  std::vector<std::vector<std::int32_t>> scores;
  {
    ScopedSpan span(tracer, "bnn");
    scores = bnn_scores(*ready.bnn, batch);
  }
  std::vector<char> rerun(batch.size());
  {
    ScopedSpan span(tracer, "dmu");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      rerun[i] = ready.dmu->confidence(to_float(scores[i])) < ready.threshold;
    }
  }
  ScopedSpan span(tracer, "nn");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (rerun[i]) (void)host_label(ready, *batch[i]);
  }
}

void fill_latency(SimFigures& sim, std::vector<double> latencies_s) {
  const RankSummary s = summarize(std::move(latencies_s));
  sim.p90_ms = 1e3 * s.p90;
  sim.p99_ms = 1e3 * s.p99;
  sim.p90_samples = s.count;
  sim.p99_valid = s.p99_valid;
}

core::StreamSession::Config serve_session_config(float threshold) {
  core::StreamSession::Config session;
  session.dmu_threshold = threshold;
  session.integrity = core::integrity::IntegrityMode::kSample;
  session.integrity_sample_period = 8;
  session.scrub_interval = 8;
  session.canary_interval = 16;
  // Fleet drain mode, as Workbench::make_fleet configures its replicas:
  // the front-end assembles batches, the fleet re-dispatches what a
  // replica gives up on.
  session.auto_dispatch = false;
  session.queue_capacity = 0;
  session.batch_size = kServeBatch;
  session.host_fallback = false;
  session.give_up_factor = 0.0;
  return session;
}

/// The serving tenants: 4 with one SLO of the batching window plus eight
/// fabric batches.
std::vector<core::TenantConfig> serve_tenants(double image_s) {
  const double slo = 4.0 * image_s + 8.0 * static_cast<double>(kServeBatch) *
                                         image_s;
  std::vector<core::TenantConfig> tenants;
  for (Dim t = 0; t < kTenants; ++t) {
    core::TenantConfig tenant;
    tenant.name = t + 1 == kTenants ? "stampede" : "tenant" + std::to_string(t);
    tenant.slo_s = slo;
    tenants.push_back(tenant);
  }
  return tenants;
}

/// Replica 1's fault plan (dispatch indices of that replica): a fabric
/// stall window and three transient accumulator bit flips for the ABFT
/// checksums.  SEU weight flips are left out: between two CRC scrubs they
/// make the fabric serve wrong labels that no detector sees (see
/// README.md), which the label check would rightly flag on every run.
core::FaultPlan replica1_plan() {
  using core::FaultKind;
  core::FaultPlan plan;
  plan.add({FaultKind::kFabricStall, 20, 23, 1.0, 1});
  for (const Dim d : {10, 30, 50}) {
    plan.add({FaultKind::kAccumulatorBitFlip, d, d, 1.0, 1});
  }
  return plan;
}

/// ServeFrontEnd over a fleet of 2 replicas (replica 1 armed with
/// `injector`, which must outlive the front-end) plus 1 host worker,
/// built through the public constructors with the pinned host latency.
core::ServeFrontEnd make_front_end(const Ready& ready,
                                   std::vector<core::TenantConfig> tenants,
                                   const core::FaultInjector& injector,
                                   double image_s) {
  const core::StreamSession::Config session =
      serve_session_config(ready.threshold);
  std::vector<core::StreamSession> replicas;
  replicas.emplace_back(*ready.bnn, *ready.design, *ready.host, ready.host_s,
                        *ready.dmu, session, nullptr);
  // The faulted replica verifies every kernel call: only full mode makes
  // every struck slot verified-or-host (DESIGN.md §16).
  core::StreamSession::Config verified = session;
  verified.integrity = core::integrity::IntegrityMode::kFull;
  replicas.emplace_back(*ready.bnn, *ready.design, *ready.host, ready.host_s,
                        *ready.dmu, verified, &injector);
  core::FleetConfig fleet;
  fleet.batch_size = kServeBatch;
  fleet.host_workers = 1;
  core::ServeConfig config;
  config.batch_size = kServeBatch;
  config.max_wait_s = 4.0 * image_s;
  config.slo_policy = core::SloPolicy::kHostRoute;
  config.session = session;
  return core::ServeFrontEnd(
      config, std::move(tenants),
      core::FleetScheduler(fleet, std::move(replicas), ready.host,
                           ready.host_s));
}

core::StreamSession make_cascade_session(const Ready& ready) {
  core::StreamSession::Config config;
  config.batch_size = kCascadeBatch;
  config.dmu_threshold = ready.threshold;
  return core::StreamSession(*ready.bnn, *ready.design, *ready.host,
                             ready.host_s, *ready.dmu, config);
}

core::SceneStreamSession make_scene_session(const Ready& ready, bool cache) {
  core::SceneStreamSession::Config config;
  config.tile = 64;
  config.halo = 8;
  config.batch_size = 16;
  config.dmu_threshold = ready.threshold;
  config.cache_enabled = cache;
  return core::SceneStreamSession(*ready.bnn, *ready.design, *ready.host,
                                  ready.host_s, *ready.dmu, config);
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCascadeOffline: return "cascade_offline";
    case Workload::kServeFaultedFleet: return "serve_faulted_fleet";
    case Workload::kSceneCut: return "scene_cut";
  }
  return "?";
}

Workload parse_workload(const std::string& name) {
  for (const Workload w : all_workloads()) {
    if (name == workload_name(w)) return w;
  }
  MPCNN_CHECK(false, "unknown workload '" << name << "'");
  return Workload::kCascadeOffline;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {Workload::kCascadeOffline,
                                            Workload::kServeFaultedFleet,
                                            Workload::kSceneCut};
  return all;
}

// ------------------------------------------------------------ set-up

void prepare_cache() {
  core::Workbench bench(bench_config());
  (void)bench.model(kHostModel);
  (void)bench.bnn_net();
}

Ready setup(double host_s, Tracer* tracer) {
  Ready ready;
  ready.host_s = host_s;
  ready.bench = std::make_unique<core::Workbench>(bench_config());
  core::Workbench& wb = *ready.bench;
  {
    ScopedSpan span(tracer, "setup.data_gen");
    (void)wb.train_set();
  }
  {
    ScopedSpan span(tracer, "setup.host_model");
    ready.host = &wb.model(kHostModel);
    ready.host->set_training(false);
  }
  {
    ScopedSpan span(tracer, "setup.compiled_bnn");
    ready.bnn = &wb.compiled_bnn();
  }
  {
    ScopedSpan span(tracer, "setup.train_scores");
    (void)wb.train_scores();
  }
  {
    ScopedSpan span(tracer, "setup.dmu_fit");
    ready.dmu = &wb.dmu();
    ready.threshold = wb.operating_threshold();
  }
  {
    ScopedSpan span(tracer, "setup.finn_design");
    ready.design = &wb.operating_design();
  }
  return ready;
}

void build_sessions(const Ready& ready, Workload workload) {
  switch (workload) {
    case Workload::kCascadeOffline:
      (void)make_cascade_session(ready);
      break;
    case Workload::kServeFaultedFleet: {
      const double image_s = ready.design->steady_seconds_per_image();
      const core::FaultInjector injector(0, replica1_plan());
      (void)make_front_end(ready, serve_tenants(image_s), injector, image_s);
      break;
    }
    case Workload::kSceneCut:
      (void)make_scene_session(ready, /*cache=*/true);
      break;
  }
}

// ------------------------------------------------------------ inputs

namespace {

/// `n` fresh generator images, from an item seed that is neither of the
/// Workbench train/test seeds (2·s+1, 2·s+2).
data::Dataset fresh_images(const Ready& ready, Dim n,
                           std::uint64_t item_seed) {
  const std::uint64_t s = ready.bench->config().seed;
  MPCNN_CHECK(item_seed != 2 * s + 1 && item_seed != 2 * s + 2,
              "workload images would repeat the train/test set");
  return ready.bench->objects().generate(n, item_seed);
}

}  // namespace

CascadeInputs make_cascade_inputs(const Ready& ready, std::uint64_t seed,
                                  const PassSizes& sizes) {
  const data::Dataset set =
      fresh_images(ready, sizes.cascade_images, mix64(seed, 0xCA5CADE));
  CascadeInputs in;
  for (Dim i = 0; i < set.size(); ++i) {
    in.images.push_back(set.images.slice_batch(i));
  }
  in.labels = set.labels;
  return in;
}

ServeInputs make_serve_inputs(const Ready& ready, std::uint64_t seed,
                              const PassSizes& sizes) {
  ServeInputs in;
  const data::Dataset set =
      fresh_images(ready, sizes.serve_pool, mix64(seed, 0x5E7E));
  for (Dim i = 0; i < set.size(); ++i) {
    in.pool.push_back(set.images.slice_batch(i));
  }
  in.pool_labels = set.labels;

  // Four Poisson tenants at a combined 1.8× one replica's Eq. (3)–(5)
  // capacity; tenant 3 stampedes at 4× through the third quarter.
  in.image_s = ready.design->steady_seconds_per_image();
  in.tenants = serve_tenants(in.image_s);
  const double span = sizes.serve_span_images * in.image_s;
  for (Dim k = 0; k < sizes.serve_traces; ++k) {
    ServeTrace trace;
    const std::uint64_t trace_seed =
        mix64(seed, 0xA770 + static_cast<std::uint64_t>(k));
    for (Dim t = 0; t < kTenants; ++t) {
      core::TraceConfig config;
      config.rate_hz = 0.45 / in.image_s;
      config.duration_s = span;
      if (t + 1 == kTenants) {
        config.pattern = core::TracePattern::kStampede;
        config.stampede_start_s = 0.5 * span;
        config.stampede_duration_s = 0.25 * span;
        config.stampede_factor = 4.0;
      }
      trace.arrivals.push_back(core::generate_arrivals(
          config, mix64(trace_seed, static_cast<std::uint64_t>(t))));
      trace.requests += static_cast<Dim>(trace.arrivals.back().size());
    }
    trace.fault_seed = mix64(trace_seed, 0xFA17);
    in.requests += trace.requests;
    in.traces.push_back(std::move(trace));
  }
  in.replica1_plan = replica1_plan();
  return in;
}

void SceneInputs::load_frame(Dim f, Tensor& out) const {
  if (out.shape().rank() != 4 || out.shape()[2] != height ||
      out.shape()[3] != width) {
    out = Tensor(mpcnn::Shape{1, 3, height, width});
  }
  const std::vector<std::uint8_t>& bytes =
      frames[static_cast<std::size_t>(f)];
  float* p = out.data();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    p[i] = static_cast<float>(bytes[i]) / 255.0f;
  }
}

SceneInputs make_scene_inputs(const Ready& ready, std::uint64_t seed,
                              const PassSizes& sizes) {
  SceneInputs in;
  in.height = 360;
  in.width = 640;
  // Generated in chunks of two cut periods and stored as u8 samples: the
  // generator quantises every frame to the u8 grid, so v/255 restores
  // the exact floats while the trace stays a quarter of the size.
  for (Dim c = 0; c < sizes.scene_chunks; ++c) {
    data::SceneTraceConfig config;
    config.pattern = data::ScenePattern::kSceneCut;
    config.frames = SceneInputs::kChunkFrames;
    config.cut_period = 4;
    config.max_objects = 3;
    config.seed = mix64(seed, 0x5CE0 + static_cast<std::uint64_t>(c));
    config.scene.height = in.height;
    config.scene.width = in.width;
    const data::SceneTrace trace =
        data::generate_scene_trace(ready.bench->objects(), config);
    for (const Tensor& frame : trace.frames) {
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(frame.numel()));
      const float* p = frame.data();
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<std::uint8_t>(std::lround(p[i] * 255.0f));
      }
      in.frames.push_back(std::move(bytes));
    }
  }
  return in;
}

// ------------------------------------------------------------ passes

CascadePass run_cascade_pass(const Ready& ready, const CascadeInputs& in,
                             Tracer* tracer) {
  core::StreamSession session = make_cascade_session(ready);
  CascadePass pass;
  const Dim n = static_cast<Dim>(in.images.size());
  ScopedSpan whole(tracer, "cascade.pass");
  for (Dim b0 = 0; b0 < n; b0 += kCascadeBatch) {
    const Dim b1 = std::min(n, b0 + kCascadeBatch);
    const Dim batch_id = b0 / kCascadeBatch;
    // Closed loop: the client hands over the next batch the instant the
    // fabric frees, so the fabric neither idles nor queues.
    const double arrival = session.fpga_busy_until();
    for (Dim i = b0; i < b1; ++i) {
      const bool dispatches = i + 1 == b0 + kCascadeBatch;
      const double t0 = wall_now();
      {
        ScopedSpan span(tracer, dispatches ? "stream.dispatch"
                                           : "stream.submit",
                        dispatches ? batch_id : i);
        (void)session.submit(in.images[static_cast<std::size_t>(i)],
                             arrival);
      }
      const double dt = wall_now() - t0;
      pass.wall.api_s += dt;
      if (dispatches) {
        pass.wall.unit_s.push_back(dt);
      } else {
        pass.submit_s.push_back(dt);
      }
    }
    if (b1 - b0 < kCascadeBatch) {
      const double t0 = wall_now();
      {
        ScopedSpan span(tracer, "stream.dispatch", batch_id);
        session.flush();
      }
      const double dt = wall_now() - t0;
      pass.wall.api_s += dt;
      pass.wall.unit_s.push_back(dt);
    }
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "stream.replay", batch_id);
      std::vector<const Tensor*> batch;
      for (Dim i = b0; i < b1; ++i) {
        batch.push_back(&in.images[static_cast<std::size_t>(i)]);
      }
      replay_cascade(ready, batch, tracer);
    }
  }
  {
    const double t0 = wall_now();
    pass.results = session.drain();
    pass.wall.api_s += wall_now() - t0;
  }
  std::sort(pass.results.begin(), pass.results.end(),
            [](const core::StreamResult& a, const core::StreamResult& b) {
              return a.image_id < b.image_id;
            });
  pass.wall.items = n;

  double span_s = 0.0;
  Dim correct = 0;
  std::vector<double> latencies;
  for (const core::StreamResult& r : pass.results) {
    span_s = std::max(span_s, r.ready_at);
    latencies.push_back(r.latency());
    correct += r.label == in.labels[static_cast<std::size_t>(r.image_id)];
  }
  pass.sim.attempted = n;
  pass.sim.img_per_s = static_cast<double>(n) / span_s;
  pass.sim.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  fill_latency(pass.sim, std::move(latencies));
  return pass;
}

namespace {

/// Replays trace `k` of the serving inputs through a fresh fleet.
ServeReplay run_serve_trace(const Ready& ready, const ServeInputs& in, Dim k,
                            Tracer* tracer, ServePass& pass) {
  const ServeTrace& trace = in.traces[static_cast<std::size_t>(k)];
  // The injector outlives the sessions that borrow it.
  const core::FaultInjector injector(trace.fault_seed, in.replica1_plan);
  core::ServeFrontEnd front =
      make_front_end(ready, in.tenants, injector, in.image_s);

  // One submitter replays the merged trace in arrival order.
  std::vector<std::tuple<double, Dim, Dim>> order;
  for (Dim t = 0; t < kTenants; ++t) {
    const std::vector<double>& arrivals =
        trace.arrivals[static_cast<std::size_t>(t)];
    for (Dim s = 0; s < static_cast<Dim>(arrivals.size()); ++s) {
      order.emplace_back(arrivals[static_cast<std::size_t>(s)], t, s);
    }
  }
  std::sort(order.begin(), order.end());

  ServeReplay replay;
  for (const auto& [arrival, tenant, seq] : order) {
    const Tensor& image =
        in.pool[static_cast<std::size_t>(in.pool_index(k, tenant, seq))];
    const double t0 = wall_now();
    {
      ScopedSpan span(tracer, "serve.submit", tenant * 1000000 + seq);
      (void)front.submit(tenant, image, arrival);
    }
    const double dt = wall_now() - t0;
    pass.wall.unit_s.push_back(dt);
    pass.wall.api_s += dt;
  }
  const double t0 = wall_now();
  {
    ScopedSpan span(tracer, "serve.finish", k);
    replay.report = front.finish();
  }
  const double finish_s = wall_now() - t0;
  pass.finish_s += finish_s;
  pass.wall.api_s += finish_s;
  replay.results = front.results();
  std::sort(replay.results.begin(), replay.results.end(),
            [](const core::ServeResult& a, const core::ServeResult& b) {
              return a.request_id < b.request_id;
            });
  for (const core::ReplicaReport& r : front.fleet().report().replicas) {
    replay.served_batches += r.served_batches;
  }
  if (tracer == nullptr) return replay;

  // Layer work behind the served requests, replayed alone.
  ScopedSpan span(tracer, "serve.replay", k);
  std::vector<const Tensor*> fabric, host;
  for (const core::ServeResult& r : replay.results) {
    const Tensor* image = &in.pool[static_cast<std::size_t>(
        in.pool_index(k, r.tenant, r.tenant_seq))];
    if (r.served_by == core::ServedBy::kFabric ||
        r.served_by == core::ServedBy::kHost) {
      fabric.push_back(image);
    }
    if (r.served_by == core::ServedBy::kHost ||
        r.served_by == core::ServedBy::kHostDegraded ||
        r.served_by == core::ServedBy::kHostRouted) {
      host.push_back(image);
    }
  }
  {
    ScopedSpan bnn(tracer, "bnn");
    (void)bnn_scores(*ready.bnn, fabric);
  }
  ScopedSpan nn(tracer, "nn");
  for (const Tensor* image : host) (void)host_label(ready, *image);
  return replay;
}

bool served(const core::ServeResult& r) {
  return r.status == core::ServeStatus::kOk ||
         r.status == core::ServeStatus::kDegraded;
}

}  // namespace

ServePass run_serve_pass(const Ready& ready, const ServeInputs& in,
                         Tracer* tracer, Dim first, Dim count) {
  const Dim traces = static_cast<Dim>(in.traces.size());
  const Dim last = count < 0 ? traces : std::min(traces, first + count);
  ServePass pass;
  ScopedSpan whole(tracer, "serve.pass");
  for (Dim k = first; k < last; ++k) {
    pass.replays.push_back(run_serve_trace(ready, in, k, tracer, pass));
  }
  // Pooled over the replays: SLO-met completions per simulated second
  // and the per-request latency distribution.
  std::vector<double> latencies;
  Dim correct = 0, slo_met = 0;
  double span_s = 0.0;
  for (Dim k = first; k < last; ++k) {
    const ServeReplay& replay =
        pass.replays[static_cast<std::size_t>(k - first)];
    const core::TenantReport& total = replay.report.total;
    slo_met += total.slo_met;
    span_s += replay.report.span_s;
    pass.sim.attempted += static_cast<Dim>(replay.results.size());
    pass.sim.shed += total.shed_admission + total.shed_overload +
                     total.shed_slo;
    for (const core::ServeResult& r : replay.results) {
      if (!served(r)) continue;
      latencies.push_back(r.latency());
      correct += r.label == in.pool_labels[static_cast<std::size_t>(
                                in.pool_index(k, r.tenant, r.tenant_seq))];
    }
  }
  const Dim n_served = static_cast<Dim>(latencies.size());
  pass.wall.items = n_served;
  pass.sim.img_per_s = static_cast<double>(slo_met) / span_s;
  pass.sim.accuracy = n_served > 0 ? static_cast<double>(correct) /
                                         static_cast<double>(n_served)
                                   : 0.0;
  fill_latency(pass.sim, std::move(latencies));
  return pass;
}

ScenePass run_scene_pass(const Ready& ready, const SceneInputs& in,
                         Tracer* tracer, bool cache, Dim first, Dim count) {
  core::SceneStreamSession session = make_scene_session(ready, cache);
  // Shadow of the session's tile cache for the traced lookup replay (same
  // capacity and key parts, so it hits and misses on the same tiles).
  core::TileResultCache shadow(session.config().cache_capacity);
  core::SceneStats shadow_stats;
  std::vector<data::TileGeometry> grid;

  ScenePass pass;
  Tensor frame;
  const Dim frames = static_cast<Dim>(in.frames.size());
  const Dim last = count < 0 ? frames : std::min(frames, first + count);
  ScopedSpan whole(tracer, "scene.pass");
  for (Dim f = first; f < last; ++f) {
    in.load_frame(f, frame);
    const double t0 = wall_now();
    core::FrameReport report;
    {
      ScopedSpan span(tracer, "scene.frame", f);
      report = session.process_frame(frame);
    }
    const double dt = wall_now() - t0;
    pass.wall.unit_s.push_back(dt);
    pass.wall.api_s += dt;
    pass.frame_misses.push_back(report.misses);
    if (tracer == nullptr) continue;

    ScopedSpan replay(tracer, "scene.replay", f);
    if (grid.empty()) grid = data::tile_grid(in.height, in.width, 64, 8);
    std::vector<Tensor> tiles;
    std::vector<std::uint64_t> hashes;
    {
      ScopedSpan span(tracer, "scene.tile_prep", f);
      for (const data::TileGeometry& g : grid) {
        tiles.push_back(data::extract_tile(frame, g));
        hashes.push_back(core::content_hash64(
            tiles.back().data(),
            static_cast<std::size_t>(tiles.back().numel()) * sizeof(float)));
      }
    }
    std::vector<const Tensor*> missed;
    std::vector<std::size_t> missed_tiles;
    {
      ScopedSpan span(tracer, "scene.cache_find", f);
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        if (shadow.find(static_cast<std::uint64_t>(t), hashes[t],
                        session.model_key(), tiles[t], shadow_stats) ==
            nullptr) {
          missed.push_back(&tiles[t]);
          missed_tiles.push_back(t);
        }
      }
    }
    for (const std::size_t t : missed_tiles) {
      shadow.insert(static_cast<std::uint64_t>(t), hashes[t],
                    session.model_key(), tiles[t], core::TileVerdict{},
                    shadow_stats);
    }
    if (!missed.empty()) replay_cascade(ready, missed, tracer);
  }
  pass.report = session.report();
  pass.verdicts = session.verdicts();
  pass.wall.items = pass.report.stats.tiles;
  pass.sim.attempted = pass.report.stats.tiles;
  // Tiles classified per simulated second (the cache serves hits too).
  pass.sim.img_per_s =
      static_cast<double>(pass.report.stats.tiles) / pass.report.total_s;
  std::vector<double> latencies;
  for (const core::FrameReport& fr : pass.report.per_frame) {
    latencies.push_back(fr.latency_s);
  }
  fill_latency(pass.sim, std::move(latencies));
  return pass;
}

// ------------------------------------------------------------ checks

CheckResult check_cascade(const Ready& ready, const CascadeInputs& in,
                          const CascadePass& pass) {
  CheckResult check;
  check.attempted = static_cast<Dim>(in.images.size());
  if (static_cast<Dim>(pass.results.size()) != check.attempted) {
    check.notes.push_back("cascade result count differs from input count");
    return check;
  }
  std::vector<const Tensor*> images;
  for (const Tensor& image : in.images) images.push_back(&image);
  const std::vector<std::vector<std::int32_t>> scores =
      bnn_scores(*ready.bnn, images);
  for (std::size_t i = 0; i < images.size(); ++i) {
    const core::StreamResult& r = pass.results[i];
    const float confidence = ready.dmu->confidence(to_float(scores[i]));
    const bool rerun = confidence < ready.threshold;
    const int bnn_label = argmax(scores[i]);
    const int label = rerun ? host_label(ready, *images[i]) : bnn_label;
    const bool same = r.image_id == static_cast<Dim>(i) &&
                      r.label == label && r.bnn_label == bnn_label &&
                      r.rerun == rerun &&
                      std::memcmp(&r.confidence, &confidence,
                                  sizeof(float)) == 0;
    check.mismatches += !same;
  }
  return check;
}

CheckResult check_serve(const Ready& ready, const ServeInputs& in,
                        const ServePass& pass) {
  CheckResult check;
  check.attempted = in.requests;
  if (pass.replays.size() != in.traces.size()) {
    check.notes.push_back("serve replay count differs from the inputs");
    return check;
  }
  // Fault-free reference of every pool image for both cascade legs.
  std::vector<const Tensor*> pool;
  for (const Tensor& image : in.pool) pool.push_back(&image);
  const std::vector<std::vector<std::int32_t>> scores =
      bnn_scores(*ready.bnn, pool);
  std::vector<int> host(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    host[i] = host_label(ready, *pool[i]);
  }
  for (Dim k = 0; k < static_cast<Dim>(in.traces.size()); ++k) {
    const ServeReplay& replay = pass.replays[static_cast<std::size_t>(k)];
    const Dim requests = in.traces[static_cast<std::size_t>(k)].requests;
    // Accounting: ids 0..requests-1, each exactly once (results are
    // sorted by id, so any gap or repeat breaks the identity).
    bool accounted = static_cast<Dim>(replay.results.size()) == requests &&
                     replay.report.total.offered == requests;
    for (Dim i = 0; accounted && i < requests; ++i) {
      accounted = replay.results[static_cast<std::size_t>(i)].request_id == i;
    }
    if (!accounted) {
      check.notes.push_back("serve requests not each accounted once");
      return check;
    }
    for (const core::ServeResult& r : replay.results) {
      if (!served(r)) {
        ++check.shed;
        continue;
      }
      const std::size_t p = static_cast<std::size_t>(
          in.pool_index(k, r.tenant, r.tenant_seq));
      int expected = host[p];
      if (r.served_by == core::ServedBy::kFabric) {
        // A fabric answer stands only where the DMU trusts the
        // fault-free BNN; anything else is a silently wrong label.
        const bool trusted = ready.dmu->confidence(to_float(scores[p])) >=
                             ready.threshold;
        expected = trusted ? argmax(scores[p]) : -2;
      }
      check.mismatches += r.label != expected;
    }
  }
  return check;
}

CheckResult check_scene(const Ready& ready, const SceneInputs& in,
                        const ScenePass& pass) {
  CheckResult check;
  check.attempted = static_cast<Dim>(pass.verdicts.size());
  const ScenePass uncached =
      run_scene_pass(ready, in, /*tracer=*/nullptr, /*cache=*/false);
  if (uncached.verdicts.size() != pass.verdicts.size()) {
    check.notes.push_back("scene verdict count differs from the replay");
    return check;
  }
  for (std::size_t i = 0; i < pass.verdicts.size(); ++i) {
    check.mismatches += std::memcmp(&pass.verdicts[i], &uncached.verdicts[i],
                                    sizeof(core::TileVerdict)) != 0;
  }
  return check;
}

bool same_outputs(const CascadePass& a, const CascadePass& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const core::StreamResult& x = a.results[i];
    const core::StreamResult& y = b.results[i];
    if (x.image_id != y.image_id || x.label != y.label ||
        x.bnn_label != y.bnn_label || x.rerun != y.rerun ||
        std::memcmp(&x.confidence, &y.confidence, sizeof(float)) != 0 ||
        std::memcmp(&x.ready_at, &y.ready_at, sizeof(double)) != 0 ||
        std::memcmp(&x.submitted_at, &y.submitted_at, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_outputs(const ServeReplay& a, const ServeReplay& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const core::ServeResult& x = a.results[i];
    const core::ServeResult& y = b.results[i];
    if (x.request_id != y.request_id || x.label != y.label ||
        x.served_by != y.served_by || x.status != y.status ||
        std::memcmp(&x.ready_at, &y.ready_at, sizeof(double)) != 0 ||
        std::memcmp(&x.dispatched_at, &y.dispatched_at, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

bool same_outputs(const ServePass& a, const ServePass& b) {
  if (a.replays.size() != b.replays.size()) return false;
  for (std::size_t k = 0; k < a.replays.size(); ++k) {
    if (!same_outputs(a.replays[k], b.replays[k])) return false;
  }
  return true;
}

bool same_verdicts(const ScenePass& whole, const ScenePass& part,
                   Dim first_frame) {
  const std::size_t tiles =
      static_cast<std::size_t>(whole.report.grid_tiles);
  const std::size_t offset = static_cast<std::size_t>(first_frame) * tiles;
  return offset + part.verdicts.size() <= whole.verdicts.size() &&
         std::memcmp(whole.verdicts.data() + offset, part.verdicts.data(),
                     part.verdicts.size() * sizeof(core::TileVerdict)) == 0;
}

bool same_outputs(const ScenePass& a, const ScenePass& b) {
  if (a.verdicts.size() != b.verdicts.size()) return false;
  if (std::memcmp(a.verdicts.data(), b.verdicts.data(),
                  a.verdicts.size() * sizeof(core::TileVerdict)) != 0) {
    return false;
  }
  return std::memcmp(&a.report.total_s, &b.report.total_s,
                     sizeof(double)) == 0;
}

}  // namespace cascade_bench
