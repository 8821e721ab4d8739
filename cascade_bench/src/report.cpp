#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/cpu.hpp"
#include "core/pipeline.hpp"
#include "core/threadpool.hpp"
#include "tensor/error.hpp"

namespace cascade_bench {

std::int64_t nearest_rank(std::int64_t n, double p) {
  MPCNN_CHECK(n > 0 && p > 0.0 && p <= 100.0,
              "nearest_rank needs n > 0 and p in (0, 100]");
  const auto rank = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank, 1, n);
}

bool enough_beyond(std::int64_t n, double p) {
  return n > 0 && n - nearest_rank(n, p) >= RankSummary::kMinBeyond;
}

RankSummary summarize(std::vector<double> samples) {
  RankSummary s;
  s.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = mpcnn::core::percentile_nearest_rank(samples, 50.0);
  s.p90 = mpcnn::core::percentile_nearest_rank(samples, 90.0);
  s.p99 = mpcnn::core::percentile_nearest_rank(samples, 99.0);
  s.p90_valid = enough_beyond(s.count, 90.0);
  s.p99_valid = enough_beyond(s.count, 99.0);
  return s;
}

double median(std::vector<double> samples) {
  return summarize(std::move(samples)).p50;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kWall: return "wall";
    case Clock::kRef: return "ref";
    case Clock::kSim: return "sim";
    case Clock::kNone: break;
  }
  return "-";
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit, Clock clock,
                    std::int64_t samples) {
  MPCNN_CHECK(valid_metric_name(name), "invalid metric name '" << name << "'");
  MPCNN_CHECK(find(name) == nullptr, "duplicate metric '" << name << "'");
  MPCNN_CHECK(std::isfinite(value), "metric " << name << " is not finite");
  metrics_.push_back(Metric{name, value, unit, clock, samples});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Identity identify() {
  Identity id;
  id.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        id.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (id.cpu_model.empty()) id.cpu_model = "unknown";
  id.isa = mpcnn::core::isa_name(mpcnn::core::active_isa());
  id.threads = mpcnn::core::thread_count();
  id.cpu_signature = mpcnn::core::cpu_signature();
  for (const char* name :
       {"MPCNN_THREADS", "MPCNN_TUNE", "MPCNN_TUNE_CACHE", "MPCNN_ISA",
        "MPCNN_BNN_EXEC", "MPCNN_INTEGRITY", "MPCNN_CACHE_DIR"}) {
    const char* v = std::getenv(name);
    id.env.emplace_back(name, v != nullptr ? v : "<unset>");
  }
  return id;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_line(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    os << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
       << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string detail_json(
    const std::string& workload, std::uint64_t seed, bool trace,
    const Identity& identity, const MetricSet& metrics,
    const std::vector<std::pair<std::string, double>>& extras) {
  std::ostringstream os;
  os << "{\n  \"workload\": " << json_string(workload)
     << ",\n  \"seed\": " << seed
     << ",\n  \"trace\": " << (trace ? "true" : "false")
     << ",\n  \"identity\": {\"nproc\": " << identity.nproc
     << ", \"cpu_model\": " << json_string(identity.cpu_model)
     << ", \"isa\": " << json_string(identity.isa)
     << ", \"threads\": " << identity.threads
     << ", \"cpu_signature\": " << json_string(identity.cpu_signature)
     << ", \"env\": {";
  for (std::size_t i = 0; i < identity.env.size(); ++i) {
    os << (i ? ", " : "") << json_string(identity.env[i].first) << ": "
       << json_string(identity.env[i].second);
  }
  os << "}},\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics.metrics().size(); ++i) {
    const Metric& m = metrics.metrics()[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": " << json_string(m.name)
       << ", \"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"clock\": " << json_string(clock_name(m.clock))
       << ", \"samples\": " << m.samples << "}";
  }
  os << "\n  ],\n  \"extras\": {";
  for (std::size_t i = 0; i < extras.size(); ++i) {
    os << (i ? ", " : "") << json_string(extras[i].first) << ": "
       << json_number(extras[i].second);
  }
  os << "}\n}\n";
  return os.str();
}

void print_metrics(const MetricSet& metrics) {
  for (const Metric& m : metrics.metrics()) {
    std::printf("  %-34s %16.6g %-8s clock=%-4s", m.name.c_str(), m.value,
                m.unit.c_str(), clock_name(m.clock));
    if (m.samples > 0) {
      std::printf(" samples=%lld", static_cast<long long>(m.samples));
    }
    std::printf("\n");
  }
}

}  // namespace cascade_bench
