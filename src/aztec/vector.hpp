// Aztec Vector: a distributed vector living on a Map (Epetra_Vector
// analogue).  Owns its local values; global reductions go through the
// Map's communicator.
#pragma once

#include <span>
#include <vector>

#include "aztec/map.hpp"

namespace aztec {

/// Distributed vector over a Map's layout.
class Vector {
 public:
  /// Zero-initialized vector on `map` (the map must outlive the vector).
  explicit Vector(const Map& map);

  /// Copy local values in (size must equal map.numMyElements()).
  Vector(const Map& map, std::span<const double> localValues);

  [[nodiscard]] const Map& map() const { return *map_; }
  [[nodiscard]] int myLength() const { return static_cast<int>(values_.size()); }
  [[nodiscard]] int globalLength() const { return map_->numGlobalElements(); }

  [[nodiscard]] double& operator[](int i) { return values_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] double operator[](int i) const {
    return values_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::span<double> localView() { return values_; }
  [[nodiscard]] std::span<const double> localView() const { return values_; }

  /// Set every local entry to `value`.
  void putScalar(double value);

  /// this = alpha*a in one pass (Epetra's Scale(alpha, A)).
  void scale(double alpha, const Vector& a);

  /// this = alpha*a + beta*this  (Epetra-style update).
  void update(double alpha, const Vector& a, double beta);

  /// this = alpha*a + beta*b + gamma*this.
  void update(double alpha, const Vector& a, double beta, const Vector& b,
              double gamma);

  /// Global dot product (collective).
  [[nodiscard]] double dot(const Vector& other) const;

  /// Global 2-norm (collective).
  [[nodiscard]] double norm2() const;

  /// Global infinity norm (collective).
  [[nodiscard]] double normInf() const;

  /// Elementwise multiply: this = a .* b.
  void multiply(const Vector& a, const Vector& b);

  /// Elementwise reciprocal of `a` into this; throws on zero entries.
  void reciprocal(const Vector& a);

 private:
  const Map* map_;
  std::vector<double> values_;
};

}  // namespace aztec
