#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <random>

#include "bnn/bitpack.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "tensor/gemm.hpp"

namespace cascade_bench {

namespace core = mpcnn::core;
namespace bnn = mpcnn::bnn;
namespace integrity = mpcnn::core::integrity;

namespace {

constexpr Dim kSweepImages = 128;
constexpr int kKernelReps = 40;

/// Resizes the shared pool for a scope and restores it afterwards.
class PoolThreads {
 public:
  explicit PoolThreads(int threads) : saved_(core::thread_count()) {
    core::set_thread_count(threads);
  }
  ~PoolThreads() { core::set_thread_count(saved_); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;

 private:
  int saved_;
};

template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    fn();
    samples.push_back(wall_now() - t0);
  }
  return median(std::move(samples));
}

/// Median per-image seconds of `fn` over the sweep images (one untimed
/// warm-up call first).
template <class Fn>
double per_image(const std::vector<Tensor>& images, Fn&& fn) {
  fn(images.front());
  std::vector<double> samples;
  for (const Tensor& image : images) {
    const double t0 = wall_now();
    fn(image);
    samples.push_back(wall_now() - t0);
  }
  return median(std::move(samples));
}

std::string indexed(const char* prefix, std::size_t k, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%02zu%s", prefix, k, suffix);
  return buf;
}

/// "5x5-conv-12" → "conv", "FC-10" → "fc": the first run of two or more
/// letters in a layer's name, lower-cased.
std::string layer_kind(const std::string& name) {
  std::string run;
  for (const char c : name + " ") {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      run += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (run.size() >= 2) {
      return run;
    } else {
      run.clear();
    }
  }
  return "layer";
}

void random_words(std::uint64_t* words, std::size_t n, std::mt19937_64& rng) {
  for (std::size_t i = 0; i < n; ++i) words[i] = rng();
}

/// bit_im2col + xnor_gemm (conv) or xnor_gemm alone (dense) at one binary
/// stage's shape on random activations; 0 when the stage has no such
/// kernel.
double isolated_stage_seconds(const bnn::CompiledStage& s,
                              std::mt19937_64& rng) {
  if (s.kind == bnn::StageKind::kBinaryConv) {
    const Dim plane_words = (s.in_h * s.in_w + 63) / 64;
    std::vector<std::uint64_t> planes(
        static_cast<std::size_t>(s.in_ch * plane_words));
    random_words(planes.data(), planes.size(), rng);
    std::vector<std::int32_t> acc(
        static_cast<std::size_t>(s.out_ch * s.out_h * s.out_w));
    return median_seconds(kKernelReps, [&] {
      const bnn::BitMatrix patches = bnn::bit_im2col(
          planes.data(), plane_words, s.in_ch, s.in_h, s.in_w, s.kernel);
      bnn::xnor_gemm(s.weights, patches, acc.data());
    });
  }
  if (s.kind == bnn::StageKind::kBinaryDense ||
      s.kind == bnn::StageKind::kOutputDense) {
    bnn::BitMatrix act(1, s.weights.cols());
    random_words(act.row_data(0),
                 static_cast<std::size_t>(act.words_per_row()), rng);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(s.out_ch));
    return median_seconds(kKernelReps,
                          [&] { bnn::xnor_gemm(s.weights, act, acc.data()); });
  }
  return 0.0;
}

/// Binary operations (XNOR + popcount = 2 per weight bit) of one image.
double bnn_ops_per_image(const bnn::CompiledBnn& net) {
  double ops = 0.0;
  for (const bnn::CompiledStage& s : net.stages) {
    if (s.kind == bnn::StageKind::kMaxPoolBinary) continue;
    const double positions =
        static_cast<double>(std::max<Dim>(1, s.out_h * s.out_w));
    ops += 2.0 * positions * static_cast<double>(s.out_ch) *
           static_cast<double>(s.patch_size());
  }
  return ops;
}

/// run_reference + predict of every image under an integrity scope of
/// `mode` (kOff = no scope), serial per image as the supervisor runs a
/// batch slot; total seconds.
double guarded_seconds(const Ready& ready, const std::vector<Tensor>& images,
                       integrity::IntegrityMode mode) {
  const double t0 = wall_now();
  for (std::size_t i = 0; i < images.size(); ++i) {
    core::SerialGuard serial;
    if (mode == integrity::IntegrityMode::kOff) {
      (void)bnn::run_reference(*ready.bnn, images[i]);
      (void)ready.host->predict(images[i]);
      continue;
    }
    std::vector<integrity::Detection> sink;
    integrity::ScopeOptions options;
    options.mode = mode;
    options.token = i;
    options.sink = &sink;
    integrity::Scope scope(options);
    (void)bnn::run_reference(*ready.bnn, images[i]);
    (void)ready.host->predict(images[i]);
  }
  return wall_now() - t0;
}

}  // namespace

void layer_sweep(const Ready& ready, const std::vector<Tensor>& all_images,
                 MetricSet& out) {
  const std::vector<Tensor> images(
      all_images.begin(),
      all_images.begin() + std::min<std::ptrdiff_t>(
                               kSweepImages,
                               static_cast<std::ptrdiff_t>(all_images.size())));
  const auto n = static_cast<std::int64_t>(images.size());
  const bnn::CompiledBnn& net = *ready.bnn;

  // ---- packed BNN: whole network, per image and batched ----
  const auto bnn_one = [&](const Tensor& image) {
    (void)bnn::run_reference(net, image);
  };
  double bnn_1t = 0.0;
  {
    PoolThreads one(1);
    bnn_1t = per_image(images, bnn_one);
  }
  const double bnn_nt = per_image(images, bnn_one);
  out.add("bnn.image_us_1t", 1e6 * bnn_1t, "us", Clock::kWall, n);
  out.add("bnn.image_us_nt", 1e6 * bnn_nt, "us", Clock::kWall, n);

  Tensor batch(mpcnn::Shape{n, 3, 32, 32});
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor& image = images[static_cast<std::size_t>(i)];
    std::copy(image.data(), image.data() + image.numel(),
              batch.data() + i * image.numel());
  }
  const double batch_s = median_seconds(
      3, [&] { (void)bnn::run_reference_batch(net, batch); });
  const double batch_rate = static_cast<double>(n) / batch_s;
  out.add("bnn.batch_img_per_s", batch_rate, "img/s", Clock::kWall, 3);
  out.add("bnn.gop_per_s", bnn_ops_per_image(net) * batch_rate / 1e9,
          "Gop/s", Clock::kWall, 3);

  // ---- each binary stage's kernels alone, at one thread ----
  double isolated_sum = 0.0;
  {
    PoolThreads one(1);
    std::mt19937_64 rng(0xB17);
    for (std::size_t k = 0; k < net.stages.size(); ++k) {
      const double s = isolated_stage_seconds(net.stages[k], rng);
      if (s <= 0.0) continue;
      isolated_sum += s;
      out.add(indexed("bnn.stage", k, ".isolated_us"), 1e6 * s, "us",
              Clock::kWall, kKernelReps);
    }
  }
  out.add("bnn.kernel_share", isolated_sum / bnn_1t, "frac", Clock::kWall,
          n);

  // ---- Eq. (3)/(4) figures of the operating design ----
  const mpcnn::finn::FinnDesign& design = *ready.design;
  out.add("finn.expected_img_per_s", design.evaluate(1000).expected_fps,
          "img/s", Clock::kSim);
  for (std::size_t k = 0; k < design.engines().size(); ++k) {
    out.add(indexed("finn.stage", k, ".cycles"),
            static_cast<double>(design.engines()[k].cycles_per_image()),
            "cycles", Clock::kSim);
  }

  // ---- host float net ----
  mpcnn::nn::Net& host = *ready.host;
  const auto nn_one = [&](const Tensor& image) { (void)host.predict(image); };
  double nn_1t = 0.0;
  {
    PoolThreads one(1);
    nn_1t = per_image(images, nn_one);
  }
  const double nn_nt = per_image(images, nn_one);
  out.add("nn.image_us_1t", 1e6 * nn_1t, "us", Clock::kWall, n);
  out.add("nn.image_us_nt", 1e6 * nn_nt, "us", Clock::kWall, n);
  out.add("nn.gflop_per_s",
          2.0 * static_cast<double>(host.total_macs()) / nn_nt / 1e9,
          "GFLOP/s", Clock::kWall, n);

  const auto& layers = host.layers();
  std::vector<std::vector<double>> layer_s(layers.size());
  for (const Tensor& image : images) {
    Tensor x = image;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const double t0 = wall_now();
      x = layers[i]->forward(x);
      layer_s[i].push_back(wall_now() - t0);
    }
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::string suffix = ".";
    suffix += layer_kind(layers[i]->name());
    suffix += "_us";
    out.add(indexed("nn.layer", i, suffix.c_str()),
            1e6 * median(layer_s[i]), "us", Clock::kWall, n);
  }

  // The largest conv GEMM of the host net, run alone: M = out channels,
  // N = output positions, K = MACs / (M·N).
  mpcnn::Shape shape = host.input_shape();
  std::int64_t gm = 0, gn = 0, gk = 0;
  for (const auto& layer : layers) {
    const mpcnn::Shape next = layer->output_shape(shape);
    const std::int64_t macs = layer->macs(shape);
    if (next.rank() == 4 && macs > gm * gn * gk) {
      gm = next[1];
      gn = next[2] * next[3];
      gk = macs / (gm * gn);
    }
    shape = next;
  }
  std::vector<float> a(static_cast<std::size_t>(gm * gk), 0.5f),
      b(static_cast<std::size_t>(gk * gn), 0.25f),
      c(static_cast<std::size_t>(gm * gn));
  const double gemm_s = median_seconds(kKernelReps, [&] {
    mpcnn::gemm(gm, gn, gk, 1.0f, a.data(), b.data(), 0.0f, c.data());
  });
  out.add("tensor.gemm_gflop_per_s",
          2.0 * static_cast<double>(gm * gn * gk) / gemm_s / 1e9, "GFLOP/s",
          Clock::kWall, kKernelReps);

  // ---- DMU gate ----
  std::vector<std::vector<float>> scores;
  for (const auto& raw : bnn::run_reference_batch(net, batch)) {
    scores.emplace_back(raw.begin(), raw.end());
  }
  volatile float sink = 0.0f;  // keeps the timed calls observable
  const int dmu_reps = 50;
  const double dmu_s = median_seconds(5, [&] {
    for (int r = 0; r < dmu_reps; ++r) {
      for (const auto& s : scores) sink = sink + ready.dmu->confidence(s);
    }
  });
  out.add("dmu.confidence_ns",
          1e9 * dmu_s / static_cast<double>(dmu_reps * n), "ns",
          Clock::kWall, 5 * dmu_reps * n);

  // ---- ABFT overhead: interleaved off / sample / full rounds ----
  std::vector<double> off, sample, full;
  for (int round = 0; round < 3; ++round) {
    off.push_back(guarded_seconds(ready, images,
                                  integrity::IntegrityMode::kOff));
    sample.push_back(guarded_seconds(ready, images,
                                     integrity::IntegrityMode::kSample));
    full.push_back(guarded_seconds(ready, images,
                                   integrity::IntegrityMode::kFull));
  }
  const double off_s = median(off);
  out.add("integrity.sample_overhead_frac", median(sample) / off_s - 1.0,
          "frac", Clock::kWall, 3);
  out.add("integrity.full_overhead_frac", median(full) / off_s - 1.0, "frac",
          Clock::kWall, 3);
}

}  // namespace cascade_bench
