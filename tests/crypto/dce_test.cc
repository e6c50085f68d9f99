// Tests for the DCE scheme — correctness of Theorem 3 (exact distance
// comparison), ciphertext shapes, randomization properties, and numerical
// robustness across dimensions and data scales.

#include "crypto/dce.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"

namespace ppanns {
namespace {

std::vector<double> RandomVector(std::size_t d, double scale, Rng& rng) {
  std::vector<double> v(d);
  for (auto& x : v) x = rng.Uniform(-scale, scale);
  return v;
}

double Dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

TEST(DceTest, KeyGenRejectsBadArguments) {
  Rng rng(1);
  EXPECT_FALSE(DceScheme::KeyGen(0, rng).ok());
  EXPECT_FALSE(DceScheme::KeyGen(8, rng, 0.0).ok());
  EXPECT_FALSE(DceScheme::KeyGen(8, rng, -1.0).ok());
  EXPECT_TRUE(DceScheme::KeyGen(8, rng, 1.0).ok());
}

TEST(DceTest, CiphertextAndTrapdoorShapes) {
  Rng rng(2);
  auto scheme = DceScheme::KeyGen(10, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  // d=10 (even): transformed dim = 2*10+16 = 36; ciphertext = 4*36 = 144.
  EXPECT_EQ(scheme->transformed_dim(), 36u);
  EXPECT_EQ(scheme->ciphertext_size(), 144u);

  std::vector<double> p = RandomVector(10, 1.0, rng);
  DceCiphertext c = scheme->Encrypt(p.data(), rng);
  EXPECT_EQ(c.data.size(), 144u);
  EXPECT_EQ(c.block, 36u);

  DceTrapdoor t = scheme->GenTrapdoor(p.data(), rng);
  EXPECT_EQ(t.data.size(), 36u);
}

TEST(DceTest, OddDimensionPaddedShapes) {
  Rng rng(3);
  auto scheme = DceScheme::KeyGen(7, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  // d_pad = 8: transformed dim = 2*8+16 = 32.
  EXPECT_EQ(scheme->transformed_dim(), 32u);
}

// The core correctness claim (Theorem 3): sign of DistanceComp agrees with
// the plaintext distance comparison, exactly, for every tested triple.
TEST(DceTest, Theorem3SignCorrectness) {
  Rng rng(4);
  const std::size_t d = 16;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());

  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> o = RandomVector(d, 1.0, rng);
    const std::vector<double> p = RandomVector(d, 1.0, rng);
    const std::vector<double> q = RandomVector(d, 1.0, rng);

    const DceCiphertext co = scheme->Encrypt(o.data(), rng);
    const DceCiphertext cp = scheme->Encrypt(p.data(), rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);

    const double z = DceScheme::DistanceComp(co, cp, tq);
    const double truth = Dist2(o, q) - Dist2(p, q);
    // Random continuous vectors: ties have measure zero. Require strict
    // agreement of signs.
    ASSERT_EQ(z < 0.0, truth < 0.0)
        << "trial " << trial << " z=" << z << " truth=" << truth;
  }
}

// Z must equal 2*r_o*r_p*r_q*(dist(o,q)-dist(p,q)) with r's in (0.5, 2), so
// |Z| is within [0.25, 16] x |dist diff| — check the proportionality window.
TEST(DceTest, MagnitudeWithinRandomizerBounds) {
  Rng rng(5);
  const std::size_t d = 12;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());

  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> o = RandomVector(d, 1.0, rng);
    const std::vector<double> p = RandomVector(d, 1.0, rng);
    const std::vector<double> q = RandomVector(d, 1.0, rng);
    const double truth = Dist2(o, q) - Dist2(p, q);
    if (std::fabs(truth) < 1e-6) continue;

    const DceCiphertext co = scheme->Encrypt(o.data(), rng);
    const DceCiphertext cp = scheme->Encrypt(p.data(), rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
    const double z = DceScheme::DistanceComp(co, cp, tq);

    const double ratio = z / (2.0 * truth);
    EXPECT_GT(ratio, 0.125 * 0.99);
    EXPECT_LT(ratio, 8.0 * 1.01);
  }
}

// Comparing a vector against itself (distinct ciphertexts of the same
// plaintext) must produce |Z| ~ 0 relative to the data scale.
TEST(DceTest, SelfComparisonNearZero) {
  Rng rng(6);
  const std::size_t d = 32;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> p = RandomVector(d, 1.0, rng);
  const std::vector<double> q = RandomVector(d, 1.0, rng);
  const DceCiphertext c1 = scheme->Encrypt(p.data(), rng);
  const DceCiphertext c2 = scheme->Encrypt(p.data(), rng);
  const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
  EXPECT_NEAR(DceScheme::DistanceComp(c1, c2, tq), 0.0, 1e-6);
}

// Antisymmetry of the comparison: swapping o and p flips the sign.
TEST(DceTest, ComparisonAntisymmetric) {
  Rng rng(7);
  const std::size_t d = 8;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> o = RandomVector(d, 1.0, rng);
    const std::vector<double> p = RandomVector(d, 1.0, rng);
    const std::vector<double> q = RandomVector(d, 1.0, rng);
    const DceCiphertext co = scheme->Encrypt(o.data(), rng);
    const DceCiphertext cp = scheme->Encrypt(p.data(), rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
    const double z1 = DceScheme::DistanceComp(co, cp, tq);
    const double z2 = DceScheme::DistanceComp(cp, co, tq);
    EXPECT_EQ(z1 < 0, z2 >= 0) << "z1=" << z1 << " z2=" << z2;
  }
}

// Probabilistic encryption: same plaintext, different ciphertexts/trapdoors.
TEST(DceTest, EncryptionIsRandomized) {
  Rng rng(8);
  const std::size_t d = 8;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const std::vector<double> p = RandomVector(d, 1.0, rng);
  const DceCiphertext c1 = scheme->Encrypt(p.data(), rng);
  const DceCiphertext c2 = scheme->Encrypt(p.data(), rng);
  EXPECT_NE(c1.data, c2.data);
  const DceTrapdoor t1 = scheme->GenTrapdoor(p.data(), rng);
  const DceTrapdoor t2 = scheme->GenTrapdoor(p.data(), rng);
  EXPECT_NE(t1.data, t2.data);
}

// Fresh keys produce unrelated ciphertexts for the same plaintext.
TEST(DceTest, DifferentKeysDifferentCiphertexts) {
  Rng rng_a(9), rng_b(10), rng_enc(11);
  const std::size_t d = 8;
  auto s1 = DceScheme::KeyGen(d, rng_a, 1.0);
  auto s2 = DceScheme::KeyGen(d, rng_b, 1.0);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::vector<double> p = RandomVector(d, 1.0, rng_enc);
  Rng r1(42), r2(42);  // identical encryption randomness
  const DceCiphertext c1 = s1->Encrypt(p.data(), r1);
  const DceCiphertext c2 = s2->Encrypt(p.data(), r2);
  EXPECT_NE(c1.data, c2.data);
}

// The kv key-vector invariant kv1 o kv3 == kv2 o kv4 must hold exactly
// enough for the telescoping identity (relative error ~1e-16 per element).
TEST(DceTest, KeyVectorInvariant) {
  Rng rng(12);
  auto scheme = DceScheme::KeyGen(20, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  const DceSecretKey& k = scheme->key();
  for (std::size_t i = 0; i < k.kv1.size(); ++i) {
    const double lhs = k.kv1[i] * k.kv3[i];
    const double rhs = k.kv2[i] * k.kv4[i];
    EXPECT_NEAR(lhs, rhs, 1e-12 * std::fabs(rhs));
    // kv entries bounded away from zero (they divide ciphertext terms).
    EXPECT_GE(std::fabs(k.kv1[i]), 0.5);
    EXPECT_GE(std::fabs(k.kv2[i]), 0.5);
    EXPECT_GE(std::fabs(k.kv4[i]), 0.5);
  }
}

// Float-input overload must agree with the double path.
TEST(DceTest, FloatOverloadAgrees) {
  Rng rng(13);
  const std::size_t d = 10;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  std::vector<float> pf(d), qf(d), of(d);
  std::vector<double> pd(d), qd(d), od(d);
  for (std::size_t i = 0; i < d; ++i) {
    pf[i] = static_cast<float>(i) * 0.25f - 1.0f;
    qf[i] = 0.5f - static_cast<float>(i) * 0.125f;
    of[i] = static_cast<float>((i * 7) % 5) * 0.3f;
    pd[i] = pf[i];
    qd[i] = qf[i];
    od[i] = of[i];
  }
  const DceCiphertext co = scheme->Encrypt(of.data(), rng);
  const DceCiphertext cp = scheme->Encrypt(pf.data(), rng);
  const DceTrapdoor tq = scheme->GenTrapdoor(qf.data(), rng);
  const double z = DceScheme::DistanceComp(co, cp, tq);
  const double truth =
      SquaredL2(od.data(), qd.data(), d) - SquaredL2(pd.data(), qd.data(), d);
  EXPECT_EQ(z < 0, truth < 0);
}

// Property sweep: sign correctness across dimensions (odd and even) and
// data scales, including the SIFT-like magnitude regime (coordinates up to
// 255, squared norms ~1e6).
struct DceSweepParam {
  std::size_t dim;
  double scale;
};

class DceSweepTest : public ::testing::TestWithParam<DceSweepParam> {};

TEST_P(DceSweepTest, SignCorrectAcrossRegimes) {
  const auto [d, scale] = GetParam();
  Rng rng(1000 + d);
  auto scheme = DceScheme::KeyGen(d, rng, scale * std::sqrt(double(d)));
  ASSERT_TRUE(scheme.ok());

  int nontrivial = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::vector<double> o = RandomVector(d, scale, rng);
    const std::vector<double> p = RandomVector(d, scale, rng);
    const std::vector<double> q = RandomVector(d, scale, rng);
    const double truth = Dist2(o, q) - Dist2(p, q);
    // Skip near-ties: with double precision the blinded comparison resolves
    // differences down to ~1e-9 of the data magnitude; ties are undefined.
    if (std::fabs(truth) < 1e-9 * scale * scale * d) continue;
    ++nontrivial;

    const DceCiphertext co = scheme->Encrypt(o.data(), rng);
    const DceCiphertext cp = scheme->Encrypt(p.data(), rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
    const double z = DceScheme::DistanceComp(co, cp, tq);
    ASSERT_EQ(z < 0.0, truth < 0.0)
        << "d=" << d << " scale=" << scale << " trial=" << trial
        << " z=" << z << " truth=" << truth;
  }
  EXPECT_GT(nontrivial, 50);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndScales, DceSweepTest,
    ::testing::Values(DceSweepParam{2, 1.0}, DceSweepParam{3, 1.0},
                      DceSweepParam{4, 1.0}, DceSweepParam{7, 1.0},
                      DceSweepParam{16, 1.0}, DceSweepParam{33, 1.0},
                      DceSweepParam{64, 1.0}, DceSweepParam{128, 1.0},
                      DceSweepParam{16, 255.0}, DceSweepParam{128, 255.0},
                      DceSweepParam{96, 0.01}, DceSweepParam{100, 8.0},
                      DceSweepParam{960, 1.0}, DceSweepParam{960, 255.0}),
    [](const ::testing::TestParamInfo<DceSweepParam>& info) {
      return "d" + std::to_string(info.param.dim) + "_s" +
             std::to_string(static_cast<int>(info.param.scale * 100));
    });

// The trapdoor a DceScheme computes from its folded M3^{-1} half must equal
// Eq. 15 evaluated literally, M3^{-1} [q_bar; -q_bar], on the same Rng
// draws. The reference re-derives q_bar from the key fields (Eq. 3).
std::vector<double> UnfoldedTrapdoor(const DceSecretKey& k, const double* q,
                                     Rng& rng) {
  const std::size_t d_pad = k.dim_pad;
  const std::size_t half_data = d_pad / 2;
  const std::size_t half = half_data + 4;
  const std::size_t dr = d_pad + 8;
  const std::size_t dt = 2 * dr;

  std::vector<double> padded(d_pad, 0.0);
  std::copy(q, q + k.dim, padded.begin());
  std::vector<double> check(d_pad);
  for (std::size_t i = 0; i + 1 < d_pad; i += 2) {
    check[i] = -(padded[i] + padded[i + 1]);
    check[i + 1] = -(padded[i] - padded[i + 1]);
  }
  const std::vector<double> hat = k.pi1.Apply(check);
  const double beta1 = rng.SignedUniform(0.5, 2.0) * k.scale;
  const double beta2 = rng.SignedUniform(0.5, 2.0) * k.scale;
  std::vector<double> bq1(hat.begin(), hat.begin() + half_data);
  bq1.insert(bq1.end(), {beta1, beta1, k.r1, k.r2});
  std::vector<double> bq2(hat.begin() + half_data, hat.end());
  bq2.insert(bq2.end(), {beta2, -beta2, k.r3, k.r4});
  std::vector<double> cat(2 * half);
  MatVec(k.m1.m_inv, bq1.data(), cat.data());
  MatVec(k.m2.m_inv, bq2.data(), cat.data() + half);
  const std::vector<double> q_bar = k.pi2.Apply(cat);

  std::vector<double> stacked(q_bar);
  for (double v : q_bar) stacked.push_back(-v);
  std::vector<double> t(dt);
  MatVec(k.m3_inv, stacked.data(), t.data());
  const double rq = rng.Uniform(0.5, 2.0);
  for (std::size_t i = 0; i < dt; ++i) t[i] *= rq * k.kv2[i] * k.kv4[i];
  return t;
}

TEST(DceTest, FoldedTrapdoorMatchesUnfoldedReference) {
  for (const std::size_t d : {16u, 131u}) {
    Rng rng(16 + d);
    auto scheme = DceScheme::KeyGen(d, rng, 3.0);
    ASSERT_TRUE(scheme.ok());
    for (int trial = 0; trial < 10; ++trial) {
      const std::vector<double> q = RandomVector(d, 3.0, rng);
      Rng r1(trial), r2(trial);
      const DceTrapdoor folded = scheme->GenTrapdoor(q.data(), r1);
      const std::vector<double> ref =
          UnfoldedTrapdoor(scheme->key(), q.data(), r2);
      ASSERT_EQ(folded.data.size(), ref.size());
      double diff2 = 0.0, ref2 = 0.0;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        diff2 += (folded.data[i] - ref[i]) * (folded.data[i] - ref[i]);
        ref2 += ref[i] * ref[i];
      }
      EXPECT_LE(std::sqrt(diff2), 1e-12 * std::sqrt(ref2))
          << "d=" << d << " trial=" << trial;
    }
  }
}

// Close-call stress: vectors engineered so dist(o,q) and dist(p,q) differ by
// a tiny relative margin; the comparison must still be exact.
TEST(DceTest, CloseDistancesStillExact) {
  Rng rng(14);
  const std::size_t d = 64;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q = RandomVector(d, 1.0, rng);
    std::vector<double> o = RandomVector(d, 1.0, rng);
    std::vector<double> p = o;
    // Perturb one coordinate by a small epsilon: distances differ by
    // ~2*eps*|o_i - q_i| + eps^2.
    const double eps = 1e-5;
    p[trial % d] += eps;
    const double truth = Dist2(o, q) - Dist2(p, q);
    if (std::fabs(truth) < 1e-12) continue;
    const DceCiphertext co = scheme->Encrypt(o.data(), rng);
    const DceCiphertext cp = scheme->Encrypt(p.data(), rng);
    const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);
    const double z = DceScheme::DistanceComp(co, cp, tq);
    ASSERT_EQ(z < 0.0, truth < 0.0) << "trial=" << trial << " truth=" << truth;
  }
}

// A full comparison-based ranking via DCE must equal the plaintext ranking.
TEST(DceTest, SortingByComparatorMatchesPlaintextOrder) {
  Rng rng(15);
  const std::size_t d = 24, n = 30;
  auto scheme = DceScheme::KeyGen(d, rng, 1.0);
  ASSERT_TRUE(scheme.ok());

  std::vector<std::vector<double>> points;
  std::vector<DceCiphertext> cts;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(RandomVector(d, 1.0, rng));
    cts.push_back(scheme->Encrypt(points.back().data(), rng));
  }
  const std::vector<double> q = RandomVector(d, 1.0, rng);
  const DceTrapdoor tq = scheme->GenTrapdoor(q.data(), rng);

  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::size_t> by_dce = ids, by_plain = ids;
  std::sort(by_dce.begin(), by_dce.end(), [&](std::size_t a, std::size_t b) {
    return DceScheme::Closer(cts[a], cts[b], tq);
  });
  std::sort(by_plain.begin(), by_plain.end(), [&](std::size_t a, std::size_t b) {
    return Dist2(points[a], q) < Dist2(points[b], q);
  });
  EXPECT_EQ(by_dce, by_plain);
}

}  // namespace
}  // namespace ppanns
