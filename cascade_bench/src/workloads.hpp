// The three seeded workloads of the cascade benchmark, their set-up from
// a warm weight cache, and the output checks.
//
//  * cascade_offline     — StreamSession, closed loop, Table V regime.
//  * serve_faulted_fleet — ServeFrontEnd over a 2-replica fleet with a
//                          seeded fault plan on replica 1, open loop on
//                          the simulated clock.
//  * scene_cut           — SceneStreamSession over a 360p scene-cut trace.
//
// A pass runs one workload's whole input once through fresh sessions, so
// every pass of a run produces bit-identical outputs and simulated-clock
// figures; the timed phase repeats passes until its wall budget is spent.
// With a non-null Tracer a pass also records spans around each call into
// a layer and replays the same items through the layers' public functions
// (bnn, dmu, nn, tile prep, cache lookup) so self times can be derived.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/serve.hpp"
#include "core/scene_stream.hpp"
#include "core/workbench.hpp"
#include "spans.hpp"

namespace cascade_bench {

using mpcnn::Dim;
using mpcnn::Tensor;

enum class Workload { kCascadeOffline, kServeFaultedFleet, kSceneCut };
const char* workload_name(Workload w);
/// Throws mpcnn::Error on an unknown name.
Workload parse_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// Sizes of one pass; the defaults are the benchmark's, the self-test
/// shrinks them for its smoke runs.
struct PassSizes {
  Dim cascade_images = 2048;
  Dim serve_pool = 4096;          ///< distinct request payloads
  Dim serve_traces = 6;           ///< independent replays per pass
  double serve_span_images = 1280.0;  ///< trace length, in fabric images
  Dim scene_chunks = 40;          ///< 8 frames (two cuts) per chunk
};

/// Everything a workload needs after set-up: the warm Workbench and the
/// cascade components borrowed from it.
struct Ready {
  std::unique_ptr<mpcnn::core::Workbench> bench;
  const mpcnn::bnn::CompiledBnn* bnn = nullptr;
  const mpcnn::finn::FinnDesign* design = nullptr;
  mpcnn::nn::Net* host = nullptr;
  const mpcnn::core::Dmu* dmu = nullptr;
  float threshold = 0.0f;
  /// Pinned host seconds per image for the simulated clock (replaces
  /// Workbench::host_profile so simulated figures repeat exactly).
  double host_s = 0.0;
};

/// Trains (cold cache) or loads (warm) Model A and the BNN.  Untimed.
void prepare_cache();

/// Warm cache → ready components.  Each Workbench call runs under its own
/// span ("setup.data_gen", "setup.host_model", ...) when traced.
Ready setup(double host_s, Tracer* tracer);

/// Builds (and drops) the workload's sessions once through their public
/// constructors: the session part of the set-up cost.
void build_sessions(const Ready& ready, Workload workload);

// ------------------------------------------------------------ inputs

struct CascadeInputs {
  std::vector<Tensor> images;  ///< batch-1 NCHW each
  std::vector<int> labels;
};

/// One replay of the serving scenario: every tenant's arrivals and the
/// seed of replica 1's fault injector.
struct ServeTrace {
  std::vector<std::vector<double>> arrivals;  ///< per tenant, ascending
  std::uint64_t fault_seed = 0;
  Dim requests = 0;
};

struct ServeInputs {
  std::vector<Tensor> pool;
  std::vector<int> pool_labels;
  std::vector<mpcnn::core::TenantConfig> tenants;
  mpcnn::core::FaultPlan replica1_plan;
  double image_s = 0.0;  ///< one replica's steady seconds per image
  /// Independent replays of one pass (each through a fresh fleet).
  std::vector<ServeTrace> traces;
  Dim requests = 0;  ///< over all traces

  Dim pool_index(Dim trace, Dim tenant, Dim seq) const {
    return (trace * 7 + tenant * 31 + seq) % static_cast<Dim>(pool.size());
  }
};

struct SceneInputs {
  static constexpr Dim kChunkFrames = 8;  ///< two cut periods
  Dim height = 0, width = 0;
  std::vector<std::vector<std::uint8_t>> frames;  ///< u8 samples, CHW

  /// Frame `f` as the float tensor the pipeline takes (exactly the
  /// generator's u8-quantised values).
  void load_frame(Dim f, Tensor& out) const;
};

CascadeInputs make_cascade_inputs(const Ready& ready, std::uint64_t seed,
                                  const PassSizes& sizes);
ServeInputs make_serve_inputs(const Ready& ready, std::uint64_t seed,
                              const PassSizes& sizes);
SceneInputs make_scene_inputs(const Ready& ready, std::uint64_t seed,
                              const PassSizes& sizes);

// ------------------------------------------------------------ passes

/// Wall-clock samples every pass records (untraced or traced).
struct WallSamples {
  std::vector<double> unit_s;  ///< the workload's latency unit (see README)
  double api_s = 0.0;          ///< Σ time inside the pipeline's API calls
  Dim items = 0;               ///< images classified
};

/// Simulated-clock figures and quality of one pass; bit-identical
/// across passes, runs and thread counts.
struct SimFigures {
  double img_per_s = 0.0;  ///< SLO-met (or all served) images / sim span
  double p90_ms = 0.0;     ///< nearest-rank p90 of the sim latency unit
  Dim p90_samples = 0;
  double p99_ms = 0.0;
  bool p99_valid = false;
  double accuracy = 0.0;
  Dim attempted = 0;
  Dim shed = 0;
};

struct CascadePass {
  std::vector<mpcnn::core::StreamResult> results;  ///< by image id
  WallSamples wall;
  std::vector<double> submit_s;  ///< submits that only queue
  SimFigures sim;
};

struct ServeReplay {
  std::vector<mpcnn::core::ServeResult> results;  ///< by request id
  mpcnn::core::ServeReport report;
  Dim served_batches = 0;  ///< Σ replica served_batches
};

struct ServePass {
  std::vector<ServeReplay> replays;  ///< one per ServeInputs trace
  WallSamples wall;
  double finish_s = 0.0;  ///< Σ finish() time
  SimFigures sim;
};

struct ScenePass {
  std::vector<mpcnn::core::TileVerdict> verdicts;
  mpcnn::core::SceneReport report;
  std::vector<Dim> frame_misses;
  WallSamples wall;
  SimFigures sim;
};

CascadePass run_cascade_pass(const Ready& ready, const CascadeInputs& in,
                             Tracer* tracer);
/// Replays traces [first, first + count) (count < 0: to the end).
ServePass run_serve_pass(const Ready& ready, const ServeInputs& in,
                         Tracer* tracer, Dim first = 0, Dim count = -1);
/// Frames [first, first + count) through a fresh session (count < 0: to
/// the end); `cache` off replays them uncached (the scene output check).
ScenePass run_scene_pass(const Ready& ready, const SceneInputs& in,
                         Tracer* tracer, bool cache = true, Dim first = 0,
                         Dim count = -1);

// ------------------------------------------------------------ checks

/// Output-check verdict of a run: shed items and mismatching outputs
/// (both count as failed), and whether any pass diverged from the first.
struct CheckResult {
  Dim attempted = 0;
  Dim shed = 0;
  Dim mismatches = 0;
  Dim diverged_passes = 0;
  std::vector<std::string> notes;

  Dim failed() const { return shed + mismatches; }
  bool correct() const {
    return mismatches == 0 && diverged_passes == 0 && notes.empty();
  }
};

/// Every label equals the layer-call reconstruction (run_reference
/// argmax → Dmu::confidence vs threshold → Net::predict).
CheckResult check_cascade(const Ready& ready, const CascadeInputs& in,
                          const CascadePass& pass);
/// Every request id accounted for exactly once; every served label equals
/// the fault-free reconstruction for the path that served it.
CheckResult check_serve(const Ready& ready, const ServeInputs& in,
                        const ServePass& pass);
/// Cached verdicts memcmp-equal to an uncached replay of the same trace.
CheckResult check_scene(const Ready& ready, const SceneInputs& in,
                        const ScenePass& pass);

/// Bit-identity of a later pass against the first (all outputs and the
/// simulated-clock figures).
bool same_outputs(const CascadePass& a, const CascadePass& b);
bool same_outputs(const ServeReplay& a, const ServeReplay& b);
bool same_outputs(const ServePass& a, const ServePass& b);
/// Verdicts of `part` (a run from frame `first_frame`) equal the same
/// frames' verdicts in `whole`.
bool same_verdicts(const ScenePass& whole, const ScenePass& part,
                   Dim first_frame);
bool same_outputs(const ScenePass& a, const ScenePass& b);

}  // namespace cascade_bench
