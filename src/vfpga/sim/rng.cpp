#include "vfpga/sim/rng.hpp"

#include "vfpga/common/contract.hpp"

namespace vfpga::sim {

Xoshiro256::Xoshiro256(u64 seed) {
  SplitMix64 sm{seed};
  for (auto& word : s_) {
    word = sm.next();
  }
  // An all-zero state is the one forbidden state; SplitMix64 cannot emit
  // four zero words in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ull;
  }
}

u64 Xoshiro256::uniform_below(u64 bound) noexcept {
  VFPGA_EXPECTS(bound > 0);
  // Lemire's nearly-divisionless method.
  u64 x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<u64>(m);
  if (lo < bound) {
    const u64 threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<u64>(m);
    }
  }
  return static_cast<u64>(m >> 64);
}

Xoshiro256 Xoshiro256::split() noexcept {
  // Use two outputs of this stream to seed a SplitMix64 chain; the child
  // stream is statistically independent for our purposes.
  const u64 a = (*this)();
  const u64 b = (*this)();
  return Xoshiro256{a ^ rotl(b, 32) ^ 0xd3833e804f4c574bull};
}

}  // namespace vfpga::sim
