#include "stream.h"

#include <utility>

namespace perfbench {

using nabbitc::net::WireGraph;

WireGraph make_chain_wire_graph(std::uint32_t chains, std::uint32_t len,
                                std::uint64_t seed) {
  WireGraph g;
  g.seed = seed;
  g.nodes.resize(static_cast<std::size_t>(chains) * len + 1);
  for (std::uint32_t c = 0; c < chains; ++c) {
    for (std::uint32_t k = 0; k < len; ++k) {
      const std::uint32_t i = c * len + k;
      g.nodes[i].color = static_cast<std::uint8_t>(c);
      if (k > 0) g.nodes[i].preds.push_back(i - 1);
    }
    g.nodes.back().preds.push_back(c * len + len - 1);
  }
  return g;
}

GraphSet make_graphs(std::uint64_t seed) {
  // Distinct streams per purpose, so adding one never shifts another.
  nabbitc::Pcg32 rng(seed, /*stream=*/0x6a);
  GraphSet s;
  s.graphs[kTiny] = nabbitc::net::make_random_wire_graph(rng.next64(), kTinyNodes);
  s.graphs[kWave] =
      nabbitc::net::make_wavefront_wire_graph(kWaveSide, rng.next64());
  s.graphs[kChain] = make_chain_wire_graph(kChains, kChainLen, rng.next64());
  for (std::uint32_t i = 0; i < kShapes; ++i) {
    s.expected_sink[i] = nabbitc::net::expected_sink_value(s.graphs[i]);
  }
  return s;
}

RequestStream::RequestStream(std::uint64_t seed, std::uint32_t caller)
    : rng_(seed, /*stream=*/0x100 + caller) {}

Request RequestStream::next() {
  if (pos_ == kShapes) {
    for (std::uint32_t i = kShapes - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.below(i + 1)]);
    }
    pos_ = 0;
  }
  Request r;
  r.shape = block_[pos_++];
  r.payload = rng_.next64();
  return r;
}

}  // namespace perfbench
