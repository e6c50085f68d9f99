// Key byte-identity pins: KeyGen and InvertibleMatrix::Random must emit the
// same bytes for a fixed seed on every thread count and kernel ISA. The CRCs
// were captured from the unblocked one-column-at-a-time Householder QR, so
// they also pin that the cache-blocked QR reproduces it bit for bit and that
// every stored key, id and byte pin keeps its meaning.
//
// The sizes are not multiples of the QR's panel or block widths: d=128 and
// d=131 give M3 sizes 272 and 280, and the matrix sweep covers ragged edges.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "common/wal.h"
#include "crypto/dce.h"
#include "crypto/key_io.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"

namespace ppanns {
namespace {

std::uint32_t BufferCrc(const BinaryWriter& w) {
  return Crc32(w.buffer().data(), w.buffer().size());
}

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> out;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kNeon}) {
    if (KernelIsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

TEST(KeyBytesPinTest, DceKeyGenBytesMatchPinnedCrc) {
  const struct {
    std::size_t dim;
    std::uint64_t seed;
    double scale;
    std::uint32_t crc;
  } cases[] = {
      {16, 161, 1.0, 0xDAC5F1BAu},
      {128, 1281, 255.0, 0xB46B03F7u},
      {131, 1311, 2.5, 0xF03137A1u},
  };
  for (const auto& c : cases) {
    Rng rng(c.seed);
    auto scheme = DceScheme::KeyGen(c.dim, rng, c.scale);
    ASSERT_TRUE(scheme.ok());
    BinaryWriter w;
    SerializeDceKey(scheme->key(), &w);
    EXPECT_EQ(BufferCrc(w), c.crc) << "d=" << c.dim;
  }
}

TEST(KeyBytesPinTest, InvertibleMatrixBytesPinnedAtAnyThreadCountAndIsa) {
  const struct {
    std::size_t n;
    std::uint32_t crc;
  } cases[] = {
      {1, 0x7B2AABEDu},   {7, 0xBDDED212u},   {65, 0xAE00F66Cu},
      {131, 0x7BDB40CEu}, {300, 0x28E04620u},
  };
  for (KernelIsa isa : SupportedIsas()) {
    ScopedKernelIsa guard(isa);
    for (std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      for (const auto& c : cases) {
        Rng rng(500 + c.n);
        const InvertibleMatrix im = InvertibleMatrix::Random(c.n, rng, &pool);
        BinaryWriter w;
        SerializeMatrix(im.m, &w);
        SerializeMatrix(im.m_inv, &w);
        EXPECT_EQ(BufferCrc(w), c.crc)
            << "n=" << c.n << " threads=" << threads
            << " isa=" << ActiveKernelName();
      }
    }
  }
}

}  // namespace
}  // namespace ppanns
