// Metric bookkeeping for the cascade benchmark: the nearest-rank
// summaries every wall-clock latency uses, metric-name validation, the
// run identity (machine, ISA, threads, environment) and the one-line
// JSON result the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cascade_bench {

/// Seconds on the monotonic wall clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank summary of a sample.  A percentile is only reported when
/// at least `kMinBeyond` samples lie above its rank, so a tail figure is
/// never one lucky sample.
struct RankSummary {
  static constexpr std::int64_t kMinBeyond = 10;
  std::int64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  bool p90_valid = false;
  bool p99_valid = false;
};

/// Rank of percentile `p` in (0, 100] over `n` samples: ceil(p/100 · n)
/// clamped to [1, n] (the rule of core::percentile_nearest_rank).
std::int64_t nearest_rank(std::int64_t n, double p);

/// True when at least RankSummary::kMinBeyond of `n` samples lie above
/// the nearest rank of `p`.
bool enough_beyond(std::int64_t n, double p);

/// Sorts `samples` and summarises them (all zeros when empty).
RankSummary summarize(std::vector<double> samples);

/// Median of a sample (nearest-rank p50; 0 when empty).
double median(std::vector<double> samples);

/// Metric names: 1–64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name);

/// Which clock a metric reads.
enum class Clock { kWall, kRef, kSim, kNone };
const char* clock_name(Clock clock);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kNone;
  std::int64_t samples = 0;  ///< observations behind the value (0 = n/a)
};

/// Ordered metric set of one run.  add() rejects malformed or duplicate
/// names (mpcnn::Error).
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           Clock clock, std::int64_t samples = 0);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Machine and environment facts recorded beside every result.
struct Identity {
  int nproc = 0;
  std::string cpu_model;
  std::string isa;
  int threads = 0;
  std::string cpu_signature;
  std::vector<std::pair<std::string, std::string>> env;  ///< MPCNN_* vars
};
Identity identify();

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// JSON string literal with escapes.
std::string json_string(const std::string& s);
/// Shortest round-trip decimal form of a double ("%.17g").
std::string json_number(double v);

/// One-line result object: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

/// Detailed JSON record of a run (identity, every metric with clock and
/// sample count, check counts) for the results directory.
std::string detail_json(const std::string& workload, std::uint64_t seed,
                        bool trace, const Identity& identity,
                        const MetricSet& metrics,
                        const std::vector<std::pair<std::string,
                                                    double>>& extras);

/// Human-readable metric table on stdout.
void print_metrics(const MetricSet& metrics);

}  // namespace cascade_bench
