#include "vfpga/sim/distributions.hpp"

#include <cmath>

#include "vfpga/common/contract.hpp"

namespace vfpga::sim {

double sample_standard_normal(Xoshiro256& rng) {
  // Box–Muller; u1 is kept away from 0 to avoid log(0).
  double u1 = rng.uniform01();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = rng.uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double sample_lognormal(Xoshiro256& rng, double median, double sigma) {
  VFPGA_EXPECTS(median > 0.0 && sigma >= 0.0);
  if (sigma == 0.0) {
    return median;
  }
  return median * std::exp(sigma * sample_standard_normal(rng));
}

double sample_exponential(Xoshiro256& rng, double mean) {
  VFPGA_EXPECTS(mean > 0.0);
  double u = rng.uniform01();
  if (u >= 1.0) {
    u = std::nextafter(1.0, 0.0);
  }
  return -mean * std::log1p(-u);
}

double sample_pareto(Xoshiro256& rng, double scale, double shape) {
  VFPGA_EXPECTS(scale > 0.0 && shape > 0.0);
  double u = rng.uniform01();
  if (u >= 1.0) {
    u = std::nextafter(1.0, 0.0);
  }
  return scale * (std::pow(1.0 - u, -1.0 / shape) - 1.0);
}

bool sample_bernoulli(Xoshiro256& rng, double p) {
  return rng.uniform01() < p;
}

u64 sample_poisson(Xoshiro256& rng, double mean) {
  VFPGA_EXPECTS(mean >= 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth's inversion by multiplication. exp(-mean) >= 1 - mean, and
    // std::exp and the subtraction below each err by under 2^-52, so a
    // first draw at or below 1 - mean - 2^-50 ends the loop with count 0
    // for certain. The noise model's tiny means nearly always take that
    // exit and skip the exp call; draws and count match the full loop.
    double product = rng.uniform01();
    if (product <= 1.0 - mean - 0x1p-50) {
      return 0;
    }
    const double limit = std::exp(-mean);
    u64 count = 0;
    while (product > limit) {
      product *= rng.uniform01();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction; fine for the noise
  // model's rates, which never approach this branch in practice.
  const double g = sample_standard_normal(rng);
  const double v = mean + std::sqrt(mean) * g + 0.5;
  return v <= 0.0 ? 0 : static_cast<u64>(v);
}

Duration JitteredSegment::sample(Xoshiro256& rng) const {
  const double med_ns = median.nanos();
  if (med_ns <= 0.0) {
    return Duration{};
  }
  double ns = sample_lognormal(rng, med_ns, sigma);
  if (floor.picos() > 0 && ns < floor.nanos()) {
    ns = floor.nanos();
  }
  if (ceiling.picos() > 0 && ns > ceiling.nanos()) {
    ns = ceiling.nanos();
  }
  return from_nanos(ns);
}

Duration MixtureSegment::sample(Xoshiro256& rng) const {
  VFPGA_EXPECTS(!components.empty());
  double total = 0.0;
  for (const auto& c : components) {
    total += c.weight;
  }
  VFPGA_EXPECTS(total > 0.0);
  double pick = rng.uniform01() * total;
  for (const auto& c : components) {
    pick -= c.weight;
    if (pick <= 0.0) {
      return c.segment.sample(rng);
    }
  }
  return components.back().segment.sample(rng);
}

}  // namespace vfpga::sim
