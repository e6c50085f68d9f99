// Distance Comparison Encryption (DCE) — Section IV of the paper.
//
// DCE encrypts vectors so that an untrusted server, given ciphertexts C_o and
// C_p of database vectors o, p and a trapdoor T_q of a query q, can compute
//
//   Z(o,p,q) = DistanceComp(C_o, C_p, T_q)
//            = 2 r_o r_p r_q (dist(o,q) - dist(p,q)),     r_o, r_p, r_q > 0
//
// whose *sign* answers the distance comparison exactly (Theorem 3) while the
// magnitudes are blinded by per-vector positive randomizers. One comparison
// costs 4*(2d+16) = 8d+64 multiplies ~ O(d) (the paper counts 4d+32 MACs for
// the two fused element-wise products).
//
// Construction (two phases):
//  * Vector randomization (Eq. 1-5): pairwise sum/difference mixing, random
//    permutation pi_1, split into two halves padded with blinding scalars
//    (alpha, r', gamma), per-half matrix encryption by M1 / M2, permutation
//    pi_2; produces p_bar in R^{d+8} with <p_bar, q_bar> = ||p||^2 - 2 p.q.
//  * Vector transformation (Eq. 8-16): a (2d+16)x(2d+16) invertible M3 split
//    into Mup / Mdown, the polarization identity (Eq. 6) and the key vectors
//    kv1..kv4 with kv1 o kv3 = kv2 o kv4 turn the matrix product into four
//    element-wise-maskable vectors per database vector and a single trapdoor
//    vector per query.
//
// Shapes: database ciphertext = 4 vectors in R^{2d+16} (8d+64 doubles);
// trapdoor = 1 vector in R^{2d+16}.
//
// Odd dimensions: step 1 pairs adjacent coordinates, so d must be even; odd
// inputs are zero-padded to d+1, which preserves all Euclidean distances.

#ifndef PPANNS_CRYPTO_DCE_H_
#define PPANNS_CRYPTO_DCE_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/permutation.h"

namespace ppanns {

/// Database-vector ciphertext: the four masked vectors (p'_1..p'_4 of Eq. 13)
/// stored contiguously, each of length 2*d_pad+16.
struct DceCiphertext {
  std::vector<double> data;  ///< 4 * (2*d_pad + 16) doubles
  std::size_t block = 0;     ///< length of each of the four blocks

  const double* p1() const { return data.data(); }
  const double* p2() const { return data.data() + block; }
  const double* p3() const { return data.data() + 2 * block; }
  const double* p4() const { return data.data() + 3 * block; }
};

/// Query trapdoor (q_bar' of Eq. 15), length 2*d_pad+16.
struct DceTrapdoor {
  std::vector<double> data;
};

/// Secret key SK = {M1, M2, M3, pi1, pi2, r1..r4, kv1..kv4}.
/// Held by the data owner and (for TrapGen) the authorized user; never by the
/// server.
struct DceSecretKey {
  std::size_t dim = 0;      ///< original vector dimension d
  std::size_t dim_pad = 0;  ///< d rounded up to even
  double scale = 1.0;       ///< magnitude hint used to size blinding scalars

  InvertibleMatrix m1;  ///< (d_pad/2+4)^2, vector randomization step 4
  InvertibleMatrix m2;  ///< (d_pad/2+4)^2
  Matrix m_up;          ///< first d_pad+8 rows of M3
  Matrix m_down;        ///< last d_pad+8 rows of M3
  Matrix m3_inv;        ///< (2*d_pad+16)^2
  Permutation pi1;      ///< on d_pad coordinates
  Permutation pi2;      ///< on d_pad+8 coordinates
  double r1 = 0, r2 = 0, r3 = 0, r4 = 0;  ///< shared blinding scalars
  std::vector<double> kv1, kv2, kv3, kv4;  ///< kv1 o kv3 == kv2 o kv4
};

/// The DCE scheme: KeyGen / Enc / TrapGen / DistanceComp (Section IV-B).
class DceScheme {
 public:
  /// Generates a secret key for d-dimensional vectors.
  ///
  /// `scale_hint` should be a rough estimate of the typical vector norm
  /// (e.g. sqrt(mean ||p||^2)); blinding scalars are drawn at that magnitude
  /// so that no coordinate of the randomized vector dominates the others,
  /// which both helps security (no coordinate is identifiable by magnitude)
  /// and keeps the comparison numerically well-conditioned.
  static Result<DceScheme> KeyGen(std::size_t dim, Rng& rng,
                                  double scale_hint = 1.0);

  /// Reconstructs a scheme from a previously generated key (e.g. one
  /// deserialized via crypto/key_io.h). The key is trusted to be
  /// structurally valid; DeserializeDceKey performs that validation.
  static DceScheme FromKey(DceSecretKey key) { return DceScheme(std::move(key)); }

  /// Encrypts a database vector (Enc). Fresh randomness per call: encrypting
  /// the same vector twice yields different ciphertexts.
  DceCiphertext Encrypt(const float* p, Rng& rng) const;
  DceCiphertext Encrypt(const double* p, Rng& rng) const;

  /// Produces the trapdoor for a query vector (TrapGen). Randomized.
  DceTrapdoor GenTrapdoor(const float* q, Rng& rng) const;
  DceTrapdoor GenTrapdoor(const double* q, Rng& rng) const;

  /// Z(o,p,q) = 2 r_o r_p r_q (dist(o,q) - dist(p,q)). Negative iff o is
  /// strictly closer to q than p (Theorem 3). Static: requires no key, this
  /// is the server-side operation.
  static double DistanceComp(const DceCiphertext& o, const DceCiphertext& p,
                             const DceTrapdoor& tq);

  /// Convenience predicate: true iff dist(o,q) < dist(p,q).
  static bool Closer(const DceCiphertext& o, const DceCiphertext& p,
                     const DceTrapdoor& tq) {
    return DistanceComp(o, p, tq) < 0.0;
  }

  const DceSecretKey& key() const { return key_; }
  std::size_t dim() const { return key_.dim; }
  /// The block/trapdoor length `dim` dictates, without a key: keyless
  /// validators (e.g. the serving facade checking an EncryptedVector's
  /// shape) must agree with KeyGen on the padding rule, so it is defined
  /// here once.
  static std::size_t TransformedDim(std::size_t dim) {
    const std::size_t dim_pad = (dim % 2 == 0) ? dim : dim + 1;
    return 2 * dim_pad + 16;
  }
  /// Length of each ciphertext block / the trapdoor: 2*d_pad + 16.
  std::size_t transformed_dim() const { return TransformedDim(key_.dim); }
  /// Total doubles per database ciphertext: 8*d_pad + 64.
  std::size_t ciphertext_size() const { return 4 * transformed_dim(); }

 private:
  /// KeyGen and FromKey both end here: derives m3_inv_folded_ from the key.
  explicit DceScheme(DceSecretKey key);

  /// Phase 1 (vector randomization) for a database vector: returns
  /// p_bar in R^{d_pad+8}.
  std::vector<double> RandomizeData(const double* p, Rng& rng) const;
  /// Phase 1 for a query vector: returns q_bar in R^{d_pad+8}.
  std::vector<double> RandomizeQuery(const double* q, Rng& rng) const;

  DceSecretKey key_;
  /// M3^{-1}[:, :dr] - M3^{-1}[:, dr:] (dt x dr, dr = d_pad + 8), so that
  /// M3^{-1} [q_bar; -q_bar] = m3_inv_folded_ q_bar: half the trapdoor
  /// matvec. Derived from the key, never serialized.
  Matrix m3_inv_folded_;
};

}  // namespace ppanns

#endif  // PPANNS_CRYPTO_DCE_H_
