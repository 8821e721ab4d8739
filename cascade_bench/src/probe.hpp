// Machine-speed probe behind the `ref` clock.
//
// The benchmark runs on shared hosts whose cores slow down by 30% or more
// for minutes at a time when neighbours get busy, and a wall-clock figure
// moves with them.  The probe times a fixed compute-bound vector loop
// that belongs to this benchmark, not to the program, so only the
// machine moves it.  A unit's wall time divided by the probe time taken
// right after it is the unit's cost in probe lengths; multiplied by
// kProbeRefS it reads as seconds on a machine where the probe takes
// kProbeRefS, the `ref` clock.
#pragma once

namespace cascade_bench {

/// The reference probe time: about the probe's per-run median on the
/// tuning VM (4-vCPU x86-64, AVX2, 4 threads; 0.62–0.92 ms).  A constant,
/// so `ref` figures compare across runs; it only scales them.
constexpr double kProbeRefS = 0.6e-3;

/// Wall seconds `threads` threads (≥ 1) take to run the probe loop
/// together: AVX2/FMA where the CPU has both, a scalar loop with the
/// same dependency structure otherwise.
double probe_s(int threads);

}  // namespace cascade_bench
