#include "replay.hpp"

#include <cctype>

#include "common/rng.hpp"
#include "net/wire.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace fedtrans;

std::string layer_kind(const std::string& layer_name) {
  static const std::map<std::string, std::string> kinds = {
      {"Conv2d", "conv2d"},     {"GroupedConv2d", "grouped_conv2d"},
      {"ScaleShift", "scale_shift"}, {"ReLU", "relu"},
      {"Linear", "linear"},     {"GlobalAvgPool", "global_avg_pool"},
      {"Flatten", "flatten"}};
  const auto it = kinds.find(layer_name);
  if (it != kinds.end()) return it->second;
  std::string out = layer_name;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

namespace {

Tensor random_batch(int batch, const std::vector<int>& shape, Rng& rng) {
  std::vector<int> full{batch};
  full.insert(full.end(), shape.begin(), shape.end());
  Tensor t(full);
  t.randn(rng, 1.0f);
  return t;
}

/// The model's layers in forward order. The global pooling head is private
/// to Model, so conv models get a stand-alone GlobalAvgPool in its place.
std::vector<Layer*> forward_layers(Model& m, GlobalAvgPool& pool) {
  std::vector<Layer*> out;
  for (std::size_t i = 0; i < m.stem().num_layers(); ++i)
    out.push_back(&m.stem().layer(i));
  for (int c = 0; c < m.num_cells(); ++c)
    for (int b = 0; b < m.blocks_in_cell(c); ++b) {
      Block& blk = m.cell_block(c, b);
      for (std::size_t i = 0; i < blk.num_layers(); ++i)
        out.push_back(&blk.layer(i));
    }
  if (m.spec().kind == CellKind::Conv) out.push_back(&pool);
  out.push_back(&m.classifier());
  return out;
}

}  // namespace

LayerTimes replay_layers(const std::vector<Model>& models, int batch,
                         int reps) {
  LayerTimes out;
  Rng rng(12345);
  for (const Model& src : models) {
    Model m = src;
    const ModelSpec& spec = m.spec();
    const std::vector<int> in_shape{spec.in_channels, spec.in_hw, spec.in_hw};
    GlobalAvgPool pool;
    const std::vector<Layer*> layers = forward_layers(m, pool);
    std::vector<std::vector<double>> fwd(layers.size());
    std::vector<std::vector<double>> bwd(layers.size());
    for (int r = 0; r <= reps; ++r) {  // r == 0 is the warm-up
      Tensor x = random_batch(batch, in_shape, rng);
      for (std::size_t i = 0; i < layers.size(); ++i) {
        const double t0 = now_us();
        x = layers[i]->forward(x, true);
        if (r > 0) fwd[i].push_back(now_us() - t0);
      }
      Tensor g(x.shape());
      g.randn(rng, 0.1f);
      for (std::size_t i = layers.size(); i-- > 0;) {
        const double t0 = now_us();
        g = layers[i]->backward(g);
        if (r > 0) bwd[i].push_back(now_us() - t0);
      }
    }
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const std::string kind = layer_kind(layers[i]->name());
      out.fwd_us[kind] += median(fwd[i]);
      out.bwd_us[kind] += median(bwd[i]);
    }

    // One full local-SGD step, as local_train runs it.
    Model t = src;
    Sgd sgd(t.params(), SgdOptions{});
    SoftmaxCrossEntropy loss;
    std::vector<double> steps;
    for (int r = 0; r <= reps; ++r) {
      Tensor x = random_batch(batch, in_shape, rng);
      std::vector<int> y(static_cast<std::size_t>(batch));
      for (int& v : y) v = rng.uniform_int(0, spec.num_classes - 1);
      const double t0 = now_us();
      Tensor logits = t.forward(x, true);
      loss.forward(logits, y);
      t.backward(loss.backward());
      sgd.step();
      if (r > 0) steps.push_back(now_us() - t0);
    }
    out.train_step_us += median(steps);
  }
  return out;
}

WireRates replay_wire(const std::vector<Model>& models, double min_seconds) {
  std::vector<std::string> frames;
  for (const Model& src : models) {
    Model m = src;
    FabricMessage down;
    down.type = MsgType::ModelDown;
    down.round = 1;
    down.receiver = 0;
    down.spec_text = m.spec().serialize();
    down.weights = m.weights();
    FabricMessage up;
    up.type = MsgType::UpdateUp;
    up.round = 1;
    up.sender = 0;
    up.weights = m.weights();
    up.avg_loss = 1.0;
    up.num_samples = 10;
    frames.push_back(encode_message(down));
    frames.push_back(encode_message(up));
  }
  std::vector<FabricMessage> msgs;
  for (const std::string& f : frames) msgs.push_back(decode_message(f));

  WireRates out;
  double bytes = 0.0;
  const double e0 = now_us();
  do {
    for (const FabricMessage& msg : msgs)
      bytes += static_cast<double>(encode_message(msg).size());
  } while ((now_us() - e0) * 1e-6 < min_seconds);
  out.encode_mb_per_s = bytes / (now_us() - e0);  // bytes/µs == MB/s

  bytes = 0.0;
  std::uint64_t sink = 0;
  const double d0 = now_us();
  do {
    for (const std::string& f : frames) {
      sink += decode_message(f).weights.size();
      bytes += static_cast<double>(f.size());
    }
  } while ((now_us() - d0) * 1e-6 < min_seconds);
  out.decode_mb_per_s = bytes / (now_us() - d0);
  if (sink == 0) out.decode_mb_per_s = 0.0;  // keeps the decodes observable
  return out;
}

}  // namespace perfbench
