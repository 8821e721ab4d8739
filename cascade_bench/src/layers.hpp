// Layer sweep of the traced run: each layer's public functions driven
// alone on a workload's images, beside the isolated kernel rates and the
// Eq. (3)/(4) cycle predictions (the paper's expected-vs-obtained table,
// applied to this repository's own code).
#pragma once

#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace cascade_bench {

/// Adds the bnn.*, finn.*, nn.*, tensor.*, dmu.confidence_ns and
/// integrity.*_overhead_frac metrics.  `_nt` figures run at the pool's
/// current size, `_1t` ones with the pool resized to one thread.
void layer_sweep(const Ready& ready, const std::vector<Tensor>& images,
                 MetricSet& out);

}  // namespace cascade_bench
