#include "spans.hpp"

#include <fstream>

#include "report.hpp"
#include "tensor/error.hpp"

namespace cascade_bench {

Tracer::Tracer() : origin_(wall_now()) {}

int Tracer::begin(const std::string& name, std::int64_t id) {
  const int index = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, wall_now(), 0.0, parent, id});
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  MPCNN_CHECK(!open_.empty() && open_.back() == index,
              "span " << index << " closed out of order");
  spans_[static_cast<std::size_t>(index)].end = wall_now();
  open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.duration();
  }
  return sum;
}

double Tracer::child_total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == name) {
      sum += s.duration();
    }
  }
  return sum;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  MPCNN_CHECK(out.good(), "cannot write trace " << path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
        << ", \"cat\": \"cascade_bench\", \"ph\": \"X\", \"pid\": 1, "
           "\"tid\": 1, \"ts\": "
        << json_number(1e6 * (s.start - origin_))
        << ", \"dur\": " << json_number(1e6 * s.duration())
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
}

}  // namespace cascade_bench
