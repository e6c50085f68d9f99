#include "crypto/dce.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"

namespace ppanns {

namespace {

// Step 1 of vector randomization (Eq. 1): pairwise sum/difference mixing.
// For the query side the result is negated so that <p_check, q_check> =
// -2 <p, q>.
void PairwiseMix(const double* x, std::size_t d_pad, double sign, double* out) {
  for (std::size_t i = 0; i + 1 < d_pad; i += 2) {
    out[i] = sign * (x[i] + x[i + 1]);
    out[i + 1] = sign * (x[i] - x[i + 1]);
  }
}

}  // namespace

DceScheme::DceScheme(DceSecretKey key) : key_(std::move(key)) {
  const std::size_t dr = key_.dim_pad + 8;
  const Matrix& inv = key_.m3_inv;
  m3_inv_folded_ = Matrix(inv.rows(), dr);
  for (std::size_t i = 0; i < inv.rows(); ++i) {
    const double* row = inv.row(i);
    double* out = m3_inv_folded_.row(i);
    for (std::size_t j = 0; j < dr; ++j) out[j] = row[j] - row[dr + j];
  }
}

Result<DceScheme> DceScheme::KeyGen(std::size_t dim, Rng& rng,
                                    double scale_hint) {
  if (dim == 0) return Status::InvalidArgument("DCE: dim must be positive");
  if (!(scale_hint > 0.0)) {
    return Status::InvalidArgument("DCE: scale_hint must be positive");
  }

  DceSecretKey key;
  key.dim = dim;
  key.dim_pad = (dim % 2 == 0) ? dim : dim + 1;
  key.scale = scale_hint;

  const std::size_t half = key.dim_pad / 2 + 4;      // block size after split
  const std::size_t dr = key.dim_pad + 8;            // randomized dimension
  const std::size_t dt = 2 * key.dim_pad + 16;       // transformed dimension

  key.m1 = InvertibleMatrix::Random(half, rng);
  key.m2 = InvertibleMatrix::Random(half, rng);

  InvertibleMatrix m3 = InvertibleMatrix::Random(dt, rng);
  key.m_up = m3.m.SliceRows(0, dr);
  key.m_down = m3.m.SliceRows(dr, dt);
  key.m3_inv = std::move(m3.m_inv);

  key.pi1 = Permutation::Random(key.dim_pad, rng);
  key.pi2 = Permutation::Random(dr, rng);

  // Shared blinding scalars at the data's magnitude so gamma_p =
  // (||p||^2 - sum r'_i r_i) / r4 stays comparable to the other coordinates.
  key.r1 = rng.SignedUniform(0.5, 2.0) * scale_hint;
  key.r2 = rng.SignedUniform(0.5, 2.0) * scale_hint;
  key.r3 = rng.SignedUniform(0.5, 2.0) * scale_hint;
  key.r4 = rng.SignedUniform(0.5, 2.0) * scale_hint;

  key.kv1.resize(dt);
  key.kv2.resize(dt);
  key.kv3.resize(dt);
  key.kv4.resize(dt);
  for (std::size_t i = 0; i < dt; ++i) {
    key.kv1[i] = rng.SignedUniform(0.5, 2.0);
    key.kv2[i] = rng.SignedUniform(0.5, 2.0);
    key.kv4[i] = rng.SignedUniform(0.5, 2.0);
    // Enforce the key invariant kv1 o kv3 = kv2 o kv4 (Section IV-A).
    key.kv3[i] = key.kv2[i] * key.kv4[i] / key.kv1[i];
  }
  return DceScheme(std::move(key));
}

std::vector<double> DceScheme::RandomizeData(const double* p, Rng& rng) const {
  const std::size_t d_pad = key_.dim_pad;
  const std::size_t half_data = d_pad / 2;
  const std::size_t half = half_data + 4;
  const double s = key_.scale;

  // Zero-pad to even dimension (preserves distances).
  std::vector<double> padded(d_pad, 0.0);
  std::copy(p, p + key_.dim, padded.begin());

  double norm2 = 0.0;
  for (double v : padded) norm2 += v * v;

  // Steps 1-2: pairwise mix, permute.
  std::vector<double> check(d_pad);
  PairwiseMix(padded.data(), d_pad, 1.0, check.data());
  std::vector<double> hat = key_.pi1.Apply(check);

  // Step 3: split and append blinding scalars (Eq. 2).
  const double alpha1 = rng.SignedUniform(0.5, 2.0) * s;
  const double alpha2 = rng.SignedUniform(0.5, 2.0) * s;
  const double rp1 = rng.SignedUniform(0.5, 2.0) * s;
  const double rp2 = rng.SignedUniform(0.5, 2.0) * s;
  const double rp3 = rng.SignedUniform(0.5, 2.0) * s;
  const double gamma =
      (norm2 - rp1 * key_.r1 - rp2 * key_.r2 - rp3 * key_.r3) / key_.r4;

  std::vector<double> bp1(half), bp2(half);
  std::copy(hat.begin(), hat.begin() + half_data, bp1.begin());
  bp1[half_data] = alpha1;
  bp1[half_data + 1] = -alpha1;
  bp1[half_data + 2] = rp1;
  bp1[half_data + 3] = rp2;
  std::copy(hat.begin() + half_data, hat.end(), bp2.begin());
  bp2[half_data] = alpha2;
  bp2[half_data + 1] = alpha2;
  bp2[half_data + 2] = rp3;
  bp2[half_data + 3] = gamma;

  // Step 4: per-half matrix encryption (row-vector times M), then permute
  // the concatenation (Eq. 4).
  std::vector<double> cat(2 * half);
  VecMat(bp1.data(), key_.m1.m, cat.data());
  VecMat(bp2.data(), key_.m2.m, cat.data() + half);
  return key_.pi2.Apply(cat);
}

std::vector<double> DceScheme::RandomizeQuery(const double* q, Rng& rng) const {
  const std::size_t d_pad = key_.dim_pad;
  const std::size_t half_data = d_pad / 2;
  const std::size_t half = half_data + 4;
  const double s = key_.scale;

  std::vector<double> padded(d_pad, 0.0);
  std::copy(q, q + key_.dim, padded.begin());

  // Steps 1-2 with negation: q_check = -[q1+q2, q1-q2, ...].
  std::vector<double> check(d_pad);
  PairwiseMix(padded.data(), d_pad, -1.0, check.data());
  std::vector<double> hat = key_.pi1.Apply(check);

  // Step 3: split with beta blinders and the shared r1..r4 (Eq. 3).
  const double beta1 = rng.SignedUniform(0.5, 2.0) * s;
  const double beta2 = rng.SignedUniform(0.5, 2.0) * s;

  std::vector<double> bq1(half), bq2(half);
  std::copy(hat.begin(), hat.begin() + half_data, bq1.begin());
  bq1[half_data] = beta1;
  bq1[half_data + 1] = beta1;
  bq1[half_data + 2] = key_.r1;
  bq1[half_data + 3] = key_.r2;
  std::copy(hat.begin() + half_data, hat.end(), bq2.begin());
  bq2[half_data] = beta2;
  bq2[half_data + 1] = -beta2;
  bq2[half_data + 2] = key_.r3;
  bq2[half_data + 3] = key_.r4;

  // Step 4: per-half inverse-matrix encryption (M^{-1} times column vector).
  std::vector<double> cat(2 * half);
  MatVec(key_.m1.m_inv, bq1.data(), cat.data());
  MatVec(key_.m2.m_inv, bq2.data(), cat.data() + half);
  return key_.pi2.Apply(cat);
}

DceCiphertext DceScheme::Encrypt(const double* p, Rng& rng) const {
  const std::size_t dt = transformed_dim();
  const std::vector<double> p_bar = RandomizeData(p, rng);

  // Vector transformation (Eq. 10 + 13): project through Mup / Mdown, shift
  // by +-1, mask by kv_i and the positive per-vector randomizer r_p.
  std::vector<double> up(dt), down(dt);
  VecMat(p_bar.data(), key_.m_up, up.data());
  VecMat(p_bar.data(), key_.m_down, down.data());

  const double rp = rng.Uniform(0.5, 2.0);  // strictly positive

  DceCiphertext c;
  c.block = dt;
  c.data.resize(4 * dt);
  double* p1 = c.data.data();
  double* p2 = c.data.data() + dt;
  double* p3 = c.data.data() + 2 * dt;
  double* p4 = c.data.data() + 3 * dt;
  for (std::size_t i = 0; i < dt; ++i) {
    p1[i] = rp * (up[i] + 1.0) / key_.kv1[i];
    p2[i] = rp * (up[i] - 1.0) / key_.kv2[i];
    p3[i] = rp * (down[i] + 1.0) / key_.kv3[i];
    p4[i] = rp * (down[i] - 1.0) / key_.kv4[i];
  }
  return c;
}

DceCiphertext DceScheme::Encrypt(const float* p, Rng& rng) const {
  std::vector<double> tmp(key_.dim);
  std::copy(p, p + key_.dim, tmp.begin());
  return Encrypt(tmp.data(), rng);
}

DceTrapdoor DceScheme::GenTrapdoor(const double* q, Rng& rng) const {
  const std::size_t dt = transformed_dim();
  const std::vector<double> q_bar = RandomizeQuery(q, rng);

  // Eq. 15: q' = r_q * (M3^{-1} [q_bar; -q_bar]) o (kv2 o kv4), with the
  // stacked product folded into m3_inv_folded_ q_bar.
  DceTrapdoor t;
  t.data.resize(dt);
  MatVec(m3_inv_folded_, q_bar.data(), t.data.data());

  const double rq = rng.Uniform(0.5, 2.0);  // strictly positive
  for (std::size_t i = 0; i < dt; ++i) {
    t.data[i] *= rq * key_.kv2[i] * key_.kv4[i];
  }
  return t;
}

DceTrapdoor DceScheme::GenTrapdoor(const float* q, Rng& rng) const {
  std::vector<double> tmp(key_.dim);
  std::copy(q, q + key_.dim, tmp.begin());
  return GenTrapdoor(tmp.data(), rng);
}

double DceScheme::DistanceComp(const DceCiphertext& o, const DceCiphertext& p,
                               const DceTrapdoor& tq) {
  // Z = [o'_1 o p'_3 - o'_2 o p'_4] . q'   (Eq. 16), one fused O(d) pass.
  return DceCompare(o.p1(), o.p2(), p.p3(), p.p4(), tq.data.data(), o.block);
}

}  // namespace ppanns
