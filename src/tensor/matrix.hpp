// Dense row-major matrices and non-owning strided views.
//
// The whole repository works in terms of these types: the from-scratch BLAS
// (src/blas) operates on views, the simulator's per-rank tiles are Matrix
// objects, and examples exchange Matrix values with the factorization API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace conflux {

using index_t = std::ptrdiff_t;

template <typename T>
class MatrixView;
template <typename T>
class ConstMatrixView;

/// Tag selecting Matrix's unfilled constructor.
struct Unfilled {};
inline constexpr Unfilled kUnfilled{};

/// Owning dense matrix, row-major, contiguous (leading dimension == cols).
///
/// Storage is a plain array, not a std::vector, so that a matrix can be
/// allocated without touching its pages (the kUnfilled constructor): the
/// factor cores write every element of their n^2 buffers in one parallel
/// pass, and a serial fill first would fault every page in on one thread.
/// Copies and fills stay std::copy_n / std::fill_n, i.e. memcpy/memset speed.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols, T fill = T{}) : Matrix(rows, cols, kUnfilled) {
    std::fill_n(data(), static_cast<std::size_t>(size()), fill);
  }

  /// A rows x cols matrix whose elements are left uninitialized: the caller
  /// must write every element before reading it.
  Matrix(index_t rows, index_t cols, Unfilled) : rows_(rows), cols_(cols) {
    expects(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
    if (size() > 0) data_ = std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(size()));
  }

  Matrix(const Matrix& other) : Matrix(other.rows_, other.cols_, kUnfilled) {
    std::copy_n(other.data(), static_cast<std::size_t>(size()), data());
  }
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      if (size() != other.size()) *this = Matrix(other.rows_, other.cols_, kUnfilled);
      rows_ = other.rows_;
      cols_ = other.cols_;
      std::copy_n(other.data(), static_cast<std::size_t>(size()), data());
    }
    return *this;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  T& operator()(index_t i, index_t j) { return data_[static_cast<std::size_t>(i * cols_ + j)]; }
  const T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }

  MatrixView<T> view();
  ConstMatrixView<T> view() const;
  MatrixView<T> block(index_t i0, index_t j0, index_t nrows, index_t ncols);
  ConstMatrixView<T> block(index_t i0, index_t j0, index_t nrows, index_t ncols) const;

  void fill(T value) { std::fill_n(data(), static_cast<std::size_t>(size()), value); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::unique_ptr<T[]> data_;
};

/// Non-owning mutable view with an explicit leading dimension (row stride).
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_CHECK(rows >= 0 && cols >= 0 && ld >= cols, "invalid view geometry");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * ld_ + j)];
  }

  T* data() const { return data_; }
  T* row(index_t i) const { return data_ + i * ld_; }

  MatrixView block(index_t i0, index_t j0, index_t nrows, index_t ncols) const {
    CONFLUX_CHECK(i0 >= 0 && j0 >= 0 && i0 + nrows <= rows_ && j0 + ncols <= cols_,
                  "block out of range");
    return MatrixView(data_ + i0 * ld_ + j0, nrows, ncols, ld_);
  }

  operator ConstMatrixView<T>() const;

 private:
  T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Non-owning read-only view.
template <typename T>
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const T* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_CHECK(rows >= 0 && cols >= 0 && ld >= cols, "invalid view geometry");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  const T& operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * ld_ + j)];
  }

  const T* data() const { return data_; }
  const T* row(index_t i) const { return data_ + i * ld_; }

  ConstMatrixView block(index_t i0, index_t j0, index_t nrows, index_t ncols) const {
    CONFLUX_CHECK(i0 >= 0 && j0 >= 0 && i0 + nrows <= rows_ && j0 + ncols <= cols_,
                  "block out of range");
    return ConstMatrixView(data_ + i0 * ld_ + j0, nrows, ncols, ld_);
  }

 private:
  const T* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

template <typename T>
MatrixView<T>::operator ConstMatrixView<T>() const {
  return ConstMatrixView<T>(data_, rows_, cols_, ld_);
}

template <typename T>
MatrixView<T> Matrix<T>::view() {
  return MatrixView<T>(data(), rows_, cols_, cols_);
}

template <typename T>
ConstMatrixView<T> Matrix<T>::view() const {
  return ConstMatrixView<T>(data(), rows_, cols_, cols_);
}

template <typename T>
MatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t nrows, index_t ncols) {
  return view().block(i0, j0, nrows, ncols);
}

template <typename T>
ConstMatrixView<T> Matrix<T>::block(index_t i0, index_t j0, index_t nrows,
                                    index_t ncols) const {
  return view().block(i0, j0, nrows, ncols);
}

/// Copy the contents of src into dst; shapes must match.
template <typename T>
void copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  expects(src.rows() == dst.rows() && src.cols() == dst.cols(),
          "copy requires matching shapes");
  for (index_t i = 0; i < src.rows(); ++i) {
    for (index_t j = 0; j < src.cols(); ++j) dst(i, j) = src(i, j);
  }
}

/// Convert src into dst element by element (value-preserving widening, or
/// round-to-nearest narrowing); shapes must match. The mixed-precision
/// drivers use this to move panels between the fp32 factors and the fp64
/// refinement iterate.
template <typename S, typename D>
void convert(ConstMatrixView<S> src, MatrixView<D> dst) {
  expects(src.rows() == dst.rows() && src.cols() == dst.cols(),
          "convert requires matching shapes");
  for (index_t i = 0; i < src.rows(); ++i) {
    const S* s = src.row(i);
    D* d = dst.row(i);
    for (index_t j = 0; j < src.cols(); ++j) d[j] = static_cast<D>(s[j]);
  }
}

using MatrixD = Matrix<double>;
using ViewD = MatrixView<double>;
using ConstViewD = ConstMatrixView<double>;

using MatrixF = Matrix<float>;
using ViewF = MatrixView<float>;
using ConstViewF = ConstMatrixView<float>;

}  // namespace conflux
