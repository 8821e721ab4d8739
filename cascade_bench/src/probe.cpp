#include "probe.hpp"

#include <thread>
#include <vector>

#include "report.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CASCADE_BENCH_X86 1
#endif

namespace cascade_bench {
namespace {

/// Eight independent multiply-add chains: enough to keep two FMA ports
/// busy, with everything in registers, so the loop's speed is the
/// core's and not the memory system's.
constexpr int kChains = 8;
constexpr int kRounds = 200000;

float scalar_loop() {
  float acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = 1.0f + static_cast<float>(k);
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * 0.999999f + 1e-7f;
  }
  float sum = 0.0f;
  for (float a : acc) sum += a;
  return sum;
}

#ifdef CASCADE_BENCH_X86
__attribute__((target("avx2,fma"))) float fma_loop() {
  __m256 acc[kChains];
  for (int k = 0; k < kChains; ++k) {
    acc[k] = _mm256_set1_ps(1.0f + static_cast<float>(k));
  }
  const __m256 m = _mm256_set1_ps(0.999999f);
  const __m256 a = _mm256_set1_ps(1e-7f);
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_ps(acc[k], m, a);
  }
  __m256 sum = acc[0];
  for (int k = 1; k < kChains; ++k) sum = _mm256_add_ps(sum, acc[k]);
  float out[8];
  _mm256_storeu_ps(out, sum);
  return out[0];
}

bool has_fma() {
  static const bool yes =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return yes;
}
#endif

void probe_loop() {
#ifdef CASCADE_BENCH_X86
  volatile float sink = has_fma() ? fma_loop() : scalar_loop();
#else
  volatile float sink = scalar_loop();
#endif
  (void)sink;
}

}  // namespace

double probe_s(int threads) {
  const double t0 = wall_now();
  {
    std::vector<std::jthread> team;  // joined when the scope ends
    for (int k = 1; k < threads; ++k) team.emplace_back(probe_loop);
    probe_loop();
  }
  return wall_now() - t0;
}

}  // namespace cascade_bench
