// The benchmark's own tests: the nearest-rank helper and its
// ten-samples-beyond rule, metric-name validation, span self times, and a
// smoke run of every workload that also asserts the simulated-clock
// figures, accuracy and outputs repeat bit-exactly, at 1 and N threads
// and with tracing on.
#pragma once

namespace cascade_bench {

/// Returns the process exit code (0 = every check passed).
int run_selftest(double host_s);

}  // namespace cascade_bench
