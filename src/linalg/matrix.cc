#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace ppanns {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::Gaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  rng.GaussianVector(0.0, 1.0, m.data().data(), rows * cols);
  return m;
}

namespace {

// Column panel width of the left-looking factorization and column block
// width of the Q accumulation. Only speed depends on them: every column sees
// the same reflections in the same order whatever the widths.
constexpr std::size_t kQrPanel = 64;
constexpr std::size_t kQrBlock = 64;

// Applies the Householder reflection H = I - 2 v v^T / (v^T v), where v is
// zero above row k and holds v[0..n-k) below it, to the w columns of a
// row-major block `cols` (row stride `ld`), using `f` (w doubles) as workspace.
//
// The dot products sweep rows in order, f[j] += v[i] * a[i][j], so each
// column's v^T a_j is the same sequential-in-i sum as the one-column-at-a-time
// textbook loop; the update a[i][j] -= f[j] * v[i], with f[j] = 2 v^T a_j /
// (v^T v), is elementwise. The result is bit-identical to that loop for any
// block split.
void ApplyReflection(const double* v, double vnorm2, std::size_t k,
                     std::size_t n, double* cols, std::size_t ld, std::size_t w,
                     double* f) {
  std::fill(f, f + w, 0.0);
  for (std::size_t i = k; i < n; ++i) Axpy(v[i - k], cols + i * ld, f, w);
  for (std::size_t j = 0; j < w; ++j) f[j] = 2.0 * f[j] / vnorm2;
  for (std::size_t i = k; i < n; ++i) Axpy(-v[i - k], f, cols + i * ld, w);
}

// Builds the reflection that zeroes rows k+1..n-1 of column k (stored with
// row stride `ld` in `col`). Returns false, leaving `v` empty, where the
// column needs no reflection.
bool HouseholderVector(const double* col, std::size_t ld, std::size_t k,
                       std::size_t n, std::vector<double>* v, double* vnorm2) {
  double norm = 0.0;
  for (std::size_t i = k; i < n; ++i) norm += col[i * ld] * col[i * ld];
  norm = std::sqrt(norm);
  if (norm < 1e-300) return false;

  const double alpha = (col[k * ld] >= 0.0) ? -norm : norm;
  std::vector<double> u(n - k);
  double u_norm2 = 0.0;
  for (std::size_t i = k; i < n; ++i) {
    u[i - k] = col[i * ld];
    if (i == k) u[0] -= alpha;
    u_norm2 += u[i - k] * u[i - k];
  }
  if (u_norm2 < 1e-300) return false;
  *v = std::move(u);
  *vnorm2 = u_norm2;
  return true;
}

// Householder QR of the square matrix `a`. Writes the orthogonal factor,
// sign-corrected so R's diagonal is non-negative, to `q` and its transpose to
// `q_t`.
//
// A is factored in left-looking column panels: each panel first applies the
// reflections of the panels before it, then factors itself. The reflections
// are kept, and Q is accumulated afterwards one column block per pool task.
// Columns are independent, so Q does not depend on how they are split over
// threads.
void HouseholderQ(const Matrix& a, ThreadPool& pool, Matrix* q, Matrix* q_t) {
  const std::size_t n = a.rows();
  // v[k] holds rows k..n-1 of reflection k; an empty v[k] means column k
  // needed no reflection.
  std::vector<std::vector<double>> v(n);
  std::vector<double> vnorm2(n, 0.0);
  std::vector<bool> flip(n, false);

  std::vector<double> panel(n * kQrPanel), f(kQrPanel);
  for (std::size_t p0 = 0; p0 < n; p0 += kQrPanel) {
    const std::size_t w = std::min(kQrPanel, n - p0);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(a.row(i) + p0, a.row(i) + p0 + w, panel.data() + i * w);
    }
    for (std::size_t k = 0; k < p0; ++k) {
      if (!v[k].empty()) {
        ApplyReflection(v[k].data(), vnorm2[k], k, n, panel.data(), w, w,
                        f.data());
      }
    }
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t k = p0 + c;
      if (HouseholderVector(panel.data() + c, w, k, n, &v[k], &vnorm2[k])) {
        ApplyReflection(v[k].data(), vnorm2[k], k, n, panel.data() + c, w,
                        w - c, f.data());
      }
      // Later reflections never touch column k, so its diagonal is final.
      flip[k] = panel[k * w + c] < 0.0;
    }
  }

  // The reflections' product applied to e_j is column j of Q^T before the
  // sign fix; flipping row i where R_ii < 0 makes R's diagonal positive.
  *q = Matrix(n, n);
  *q_t = Matrix(n, n);
  const std::size_t blocks = (n + kQrBlock - 1) / kQrBlock;
  pool.ParallelFor(blocks, [&](std::size_t begin, std::size_t end) {
    std::vector<double> blk(n * kQrBlock), g(kQrBlock);
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t c0 = b * kQrBlock;
      const std::size_t w = std::min(kQrBlock, n - c0);
      std::fill(blk.begin(), blk.begin() + n * w, 0.0);
      for (std::size_t c = 0; c < w; ++c) blk[(c0 + c) * w + c] = 1.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (!v[k].empty()) {
          ApplyReflection(v[k].data(), vnorm2[k], k, n, blk.data(), w, w,
                          g.data());
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        double* row = blk.data() + i * w;
        if (flip[i]) {
          for (std::size_t c = 0; c < w; ++c) row[c] = -row[c];
        }
        std::copy(row, row + w, q_t->row(i) + c0);
      }
      for (std::size_t c = 0; c < w; ++c) {
        double* out = q->row(c0 + c);
        for (std::size_t i = 0; i < n; ++i) out[i] = blk[i * w + c];
      }
    }
  });
}

}  // namespace

Matrix Matrix::RandomOrthogonal(std::size_t n, Rng& rng) {
  // Householder QR of a Gaussian matrix; Q is returned. Sign-correcting the
  // diagonal of R makes Q Haar-ish distributed rather than biased.
  Matrix q, q_t;
  HouseholderQ(Gaussian(n, n, rng), ThreadPool::Global(), &q, &q_t);
  return q;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t.at(j, i) = at(i, j);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  PPANNS_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = at(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::SliceRows(std::size_t row_begin, std::size_t row_end) const {
  PPANNS_CHECK(row_begin <= row_end && row_end <= rows_);
  Matrix out(row_end - row_begin, cols_);
  std::copy(data_.begin() + row_begin * cols_, data_.begin() + row_end * cols_,
            out.data().begin());
  return out;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

void MatVec(const Matrix& a, const double* x, double* y) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = Dot(a.row(i), x, a.cols());
  }
}

void VecMat(const double* x, const Matrix& a, double* y) {
  std::fill(y, y + a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (x[i] != 0.0) Axpy(x[i], a.row(i), y, a.cols());
  }
}

LuDecomposition::LuDecomposition(const Matrix& a, double pivot_tol)
    : n_(a.rows()), lu_(a), perm_(a.rows()) {
  PPANNS_CHECK(a.rows() == a.cols());
  for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

  ok_ = true;
  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below row k.
    std::size_t pivot = k;
    double pmax = std::fabs(lu_.at(k, k));
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double v = std::fabs(lu_.at(i, k));
      if (v > pmax) {
        pmax = v;
        pivot = i;
      }
    }
    if (pmax < pivot_tol) {
      ok_ = false;
      return;
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n_; ++j) {
        std::swap(lu_.at(k, j), lu_.at(pivot, j));
      }
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_pivot = 1.0 / lu_.at(k, k);
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double factor = lu_.at(i, k) * inv_pivot;
      lu_.at(i, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t j = k + 1; j < n_; ++j) {
        lu_.at(i, j) -= factor * lu_.at(k, j);
      }
    }
  }
}

Status LuDecomposition::Solve(const double* b, double* x) const {
  if (!ok_) return Status::FailedPrecondition("LU: matrix is singular");
  // Forward substitution with permuted b (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= lu_.at(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution.
  for (std::size_t ii = n_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = x[i];
    for (std::size_t j = i + 1; j < n_; ++j) s -= lu_.at(i, j) * x[j];
    x[i] = s / lu_.at(i, i);
  }
  return Status::OK();
}

Result<Matrix> LuDecomposition::Inverse() const {
  if (!ok_) return Status::FailedPrecondition("LU: matrix is singular");
  Matrix inv(n_, n_);
  std::vector<double> e(n_, 0.0), col(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    e[j] = 1.0;
    PPANNS_RETURN_IF_ERROR(Solve(e.data(), col.data()));
    for (std::size_t i = 0; i < n_; ++i) inv.at(i, j) = col[i];
    e[j] = 0.0;
  }
  return inv;
}

double LuDecomposition::Determinant() const {
  if (!ok_) return 0.0;
  double det = perm_sign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_.at(i, i);
  return det;
}

Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x) {
  PPANNS_CHECK(a.rows() == b.size());
  LuDecomposition lu(a);
  if (!lu.ok()) return Status::FailedPrecondition("singular system");
  x->resize(a.rows());
  return lu.Solve(b.data(), x->data());
}

InvertibleMatrix InvertibleMatrix::RandomFast(std::size_t n, Rng& rng,
                                              std::size_t reflections) {
  // Draw k unit vectors for the Householder reflections H_i = I - 2 v v^T.
  std::vector<std::vector<double>> vs(reflections, std::vector<double>(n));
  for (auto& v : vs) {
    rng.GaussianVector(0.0, 1.0, v.data(), n);
    double norm2 = 0.0;
    for (double x : v) norm2 += x * x;
    const double inv = 1.0 / std::sqrt(norm2);
    for (double& x : v) x *= inv;
  }
  std::vector<double> d1(n), d2(n);
  for (std::size_t i = 0; i < n; ++i) {
    d1[i] = rng.SignedUniform(0.5, 2.0);
    d2[i] = rng.SignedUniform(0.5, 2.0);
  }

  // Left-applies H = I - 2 v v^T: M <- M - 2 v (v^T M).
  auto apply_reflection = [n](const std::vector<double>& v, Matrix* m) {
    std::vector<double> vtm(n);
    VecMat(v.data(), *m, vtm.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double f = 2.0 * v[i];
      if (f == 0.0) continue;
      double* row = m->row(i);
      for (std::size_t j = 0; j < n; ++j) row[j] -= f * vtm[j];
    }
  };

  InvertibleMatrix out;
  // m = D1 * H_k ... H_1 * D2.
  out.m = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) out.m.at(i, i) = d2[i];
  for (const auto& v : vs) apply_reflection(v, &out.m);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out.m.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] *= d1[i];
  }
  // m_inv = D2^{-1} * H_1 ... H_k * D1^{-1} (H self-inverse).
  out.m_inv = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) out.m_inv.at(i, i) = 1.0 / d1[i];
  for (std::size_t r = reflections; r > 0; --r) {
    apply_reflection(vs[r - 1], &out.m_inv);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out.m_inv.row(i);
    for (std::size_t j = 0; j < n; ++j) row[j] /= d2[i];
  }
  return out;
}

InvertibleMatrix InvertibleMatrix::Random(std::size_t n, Rng& rng,
                                          ThreadPool* pool) {
  Matrix q, q_t;
  HouseholderQ(Matrix::Gaussian(n, n, rng),
               pool != nullptr ? *pool : ThreadPool::Global(), &q, &q_t);
  std::vector<double> d1(n), d2(n);
  for (std::size_t i = 0; i < n; ++i) {
    d1[i] = rng.SignedUniform(0.5, 2.0);
    d2[i] = rng.SignedUniform(0.5, 2.0);
  }
  // M = D1 Q D2  =>  M^{-1} = D2^{-1} Q^T D1^{-1}. Both built directly so the
  // pair is exact to rounding (no LU inversion error enters the keys).
  InvertibleMatrix out;
  out.m = Matrix(n, n);
  out.m_inv = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* q_row = q.row(i);
    const double* q_t_row = q_t.row(i);
    double* m_row = out.m.row(i);
    double* m_inv_row = out.m_inv.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      m_row[j] = d1[i] * q_row[j] * d2[j];
      m_inv_row[j] = (1.0 / d2[i]) * q_t_row[j] * (1.0 / d1[j]);
    }
  }
  return out;
}

}  // namespace ppanns
