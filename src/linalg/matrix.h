// Dense double-precision matrix/vector algebra for the cryptographic
// transforms (DCE, ASPE, AME) and the KPA attack solvers.
//
// All cryptographic math runs in double: the DCE comparison telescopes a sum
// of magnitude ~ ||p||^2 * ||M|| down to 2*r_o*r_p*r_q*(dist diff), so sign
// decisions need every bit of double's 1e-16 relative precision.

#ifndef PPANNS_LINALG_MATRIX_H_
#define PPANNS_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/kernels.h"

namespace ppanns {

class ThreadPool;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double at(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  double* row(std::size_t i) { return data_.data() + i * cols_; }
  const double* row(std::size_t i) const { return data_.data() + i * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Identity matrix of size n.
  static Matrix Identity(std::size_t n);

  /// Matrix with iid N(0,1) entries.
  static Matrix Gaussian(std::size_t rows, std::size_t cols, Rng& rng);

  /// Random orthogonal matrix via Householder QR of a Gaussian matrix
  /// (Haar-ish distributed; exactly invertible by transpose). The QR is
  /// cache-blocked and accumulates Q on ThreadPool::Global(); the result is
  /// bit-identical for every thread count and kernel ISA.
  static Matrix RandomOrthogonal(std::size_t n, Rng& rng);

  Matrix Transpose() const;

  /// this * other. Dimensions must agree (CHECKed).
  Matrix Multiply(const Matrix& other) const;

  /// Returns rows [row_begin, row_end) as a new matrix.
  Matrix SliceRows(std::size_t row_begin, std::size_t row_end) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x (A: m x n, x: n, y: m).
void MatVec(const Matrix& a, const double* x, double* y);

/// y = x^T A (A: m x n, x: m, y: n).
void VecMat(const double* x, const Matrix& a, double* y);

// Dot(double) and SquaredL2(double) live in linalg/kernels.h: all distance /
// inner-product code — float filter-stage and double crypto alike — sits
// behind the one runtime-dispatched kernel layer.

/// LU decomposition with partial pivoting. Factorizes a copy of `a`;
/// Solve() then answers A x = b in O(n^2) per right-hand side.
class LuDecomposition {
 public:
  /// Factorizes `a` (must be square). `ok()` is false if singular
  /// (pivot magnitude below `pivot_tol`).
  explicit LuDecomposition(const Matrix& a, double pivot_tol = 1e-12);

  bool ok() const { return ok_; }

  /// Solves A x = b. Requires ok().
  Status Solve(const double* b, double* x) const;

  /// Computes A^{-1}. Requires ok().
  Result<Matrix> Inverse() const;

  /// |det A| is the product of |pivots|; sign tracking included.
  double Determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  bool ok_ = false;
};

/// Convenience wrapper: solves A x = b once. Returns an error Status for
/// singular systems (used by the KPA attacks, where singularity means the
/// attacker must resample leaked points).
Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x);

/// A random invertible matrix together with its exact inverse.
///
/// Constructed as M = D1 * Q * D2 with Q orthogonal (Householder QR of a
/// Gaussian matrix) and D1, D2 diagonal with entries of magnitude in
/// [0.5, 2). This keeps the condition number <= 16 so that the DCE / AME
/// sign computations are numerically reliable, while M itself has no
/// exploitable structure (it is dense and non-orthogonal).
struct InvertibleMatrix {
  Matrix m;
  Matrix m_inv;

  /// Runs the QR of Matrix::RandomOrthogonal on `pool` (default
  /// ThreadPool::Global()); the output does not depend on the pool.
  static InvertibleMatrix Random(std::size_t n, Rng& rng,
                                 ThreadPool* pool = nullptr);

  /// O(k n^2) variant: M = D1 * (H_k ... H_1) * D2 with k Householder
  /// reflections (each orthogonal and self-inverse), so the inverse is
  /// exact and the condition number is still <= cond(D1) * cond(D2) <= 16.
  /// Used where key generation cost dominates and the key's statistical
  /// structure is not security-relevant (the AME cost-model baseline
  /// generates 32 keys of dimension 2d+6; at GIST's d=960 that is 32 full
  /// QRs of n=1926, about a minute in all, against milliseconds here).
  static InvertibleMatrix RandomFast(std::size_t n, Rng& rng,
                                     std::size_t reflections = 16);
};

}  // namespace ppanns

#endif  // PPANNS_LINALG_MATRIX_H_
