// Full-iteration golden digests of the paper sweeps.
//
// The same digests as GoldenDigest.VirtioSweep/XdmaSweep, but at the
// default 50 000 iterations per cell that fig3/fig4/fig5/table1 run.
// A whole sweep takes seconds, so this binary is not registered with
// ctest; the Release CI job runs it directly:
//
//   ./build/tests/golden_digest_full
#include <gtest/gtest.h>

#include "support/sweep_digest.hpp"
#include "vfpga/harness/virtio_bench.hpp"
#include "vfpga/harness/xdma_bench.hpp"

namespace vfpga {
namespace {

using testing_support::sweep_digest;

TEST(GoldenDigestFull, VirtioSweep) {
  const u64 digest = sweep_digest(harness::run_virtio_sweep({}));
  EXPECT_EQ(digest, 0xb2fd83cfbb167b8bull) << std::hex << "0x" << digest;
}

TEST(GoldenDigestFull, XdmaSweep) {
  const u64 digest = sweep_digest(harness::run_xdma_sweep({}));
  EXPECT_EQ(digest, 0x78ac19fc7255753full) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace vfpga
