// The seeded request stream shared by serve-tcp and replay-inproc.
//
// One seed fixes everything the program receives: the three wire graphs
// (their topology seeds and node-function seeds), and for every caller the
// order of shapes and the SUBMIT payloads. Shapes come in shuffled blocks
// of three, so each caller sends exactly equal thirds of every shape over
// any whole number of blocks.
#pragma once

#include <array>
#include <cstdint>

#include "net/protocol.h"
#include "support/rng.h"

namespace perfbench {

enum Shape : std::uint32_t { kTiny = 0, kWave = 1, kChain = 2 };
inline constexpr std::uint32_t kShapes = 3;
inline constexpr std::array<const char*, kShapes> kShapeNames = {"tiny", "wave",
                                                                 "chain"};

/// Graph sizes. tiny stays under plan::kTinyGraphMaxNodes (inline serial
/// lowering); wave is the paper's wavefront (work stealing); chain is
/// kChains chains of kChainLen nodes into one sink, which chain fusion
/// collapses to kChains + 1 units.
inline constexpr std::uint32_t kTinyNodes = 16;
inline constexpr std::uint32_t kWaveSide = 16;
inline constexpr std::uint32_t kChains = 8;
inline constexpr std::uint32_t kChainLen = 32;

/// kChains chains of kChainLen nodes feeding one sink; chain c has color c.
nabbitc::net::WireGraph make_chain_wire_graph(std::uint32_t chains,
                                              std::uint32_t len,
                                              std::uint64_t seed);

/// The three graphs of a seed, indexed by Shape, and each one's reference
/// sink value (net::expected_sink_value, computed once).
struct GraphSet {
  std::array<nabbitc::net::WireGraph, kShapes> graphs;
  std::array<std::uint64_t, kShapes> expected_sink{};
};
GraphSet make_graphs(std::uint64_t seed);

struct Request {
  Shape shape = kTiny;
  std::uint64_t payload = 0;
};

/// Caller `caller`'s infinite request sequence under `seed`.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::uint32_t caller);
  Request next();

 private:
  nabbitc::Pcg32 rng_;
  std::array<Shape, kShapes> block_{kTiny, kWave, kChain};
  std::uint32_t pos_ = kShapes;  // refill on first next()
};

}  // namespace perfbench
