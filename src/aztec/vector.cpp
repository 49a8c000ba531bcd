#include "aztec/vector.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/dist_csr.hpp"

namespace aztec {

Vector::Vector(const Map& map)
    : map_(&map),
      values_(static_cast<std::size_t>(map.numMyElements()), 0.0) {}

Vector::Vector(const Map& map, std::span<const double> localValues)
    : map_(&map), values_(localValues.begin(), localValues.end()) {
  LISI_CHECK(static_cast<int>(values_.size()) == map.numMyElements(),
             "Vector: local values size does not match the map");
}

void Vector::putScalar(double value) {
  std::fill(values_.begin(), values_.end(), value);
}

void Vector::scale(double alpha, const Vector& a) {
  LISI_CHECK(map_->sameAs(a.map()), "Vector::scale: incompatible maps");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = alpha * a.values_[i];
  }
}

void Vector::update(double alpha, const Vector& a, double beta) {
  LISI_CHECK(map_->sameAs(a.map()), "Vector::update: incompatible maps");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = alpha * a.values_[i] + beta * values_[i];
  }
}

void Vector::update(double alpha, const Vector& a, double beta,
                    const Vector& b, double gamma) {
  LISI_CHECK(map_->sameAs(a.map()) && map_->sameAs(b.map()),
             "Vector::update: incompatible maps");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = alpha * a.values_[i] + beta * b.values_[i] + gamma * values_[i];
  }
}

double Vector::dot(const Vector& other) const {
  LISI_CHECK(map_->sameAs(other.map()), "Vector::dot: incompatible maps");
  return lisi::sparse::distDot(map_->comm(), values_, other.values_);
}

double Vector::norm2() const {
  return lisi::sparse::distNorm2(map_->comm(), values_);
}

double Vector::normInf() const {
  return lisi::sparse::distNormInf(map_->comm(), values_);
}

void Vector::multiply(const Vector& a, const Vector& b) {
  LISI_CHECK(map_->sameAs(a.map()) && map_->sameAs(b.map()),
             "Vector::multiply: incompatible maps");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[i] = a.values_[i] * b.values_[i];
  }
}

void Vector::reciprocal(const Vector& a) {
  LISI_CHECK(map_->sameAs(a.map()), "Vector::reciprocal: incompatible maps");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    LISI_CHECK(a.values_[i] != 0.0, "Vector::reciprocal: zero entry");
    values_[i] = 1.0 / a.values_[i];
  }
}

}  // namespace aztec
