#include "aztec/multi_vector.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/dist_csr.hpp"

namespace aztec {

MultiVector::MultiVector(const Map& map, int numVectors) : map_(&map) {
  LISI_CHECK(numVectors >= 1, "MultiVector: numVectors must be positive");
  lanes_.reserve(static_cast<std::size_t>(numVectors));
  for (int k = 0; k < numVectors; ++k) lanes_.emplace_back(map);
}

MultiVector::MultiVector(const Map& map, std::span<const double> localValues,
                         int numVectors)
    : map_(&map) {
  LISI_CHECK(numVectors >= 1, "MultiVector: numVectors must be positive");
  const auto n = static_cast<std::size_t>(map.numMyElements());
  LISI_CHECK(localValues.size() == n * static_cast<std::size_t>(numVectors),
             "MultiVector: local values size does not match map x numVectors");
  lanes_.reserve(static_cast<std::size_t>(numVectors));
  for (int k = 0; k < numVectors; ++k) {
    lanes_.emplace_back(
        map, localValues.subspan(static_cast<std::size_t>(k) * n, n));
  }
}

void MultiVector::dots(const MultiVector& other, std::span<double> out) const {
  LISI_CHECK(map_->sameAs(other.map()) &&
                 other.numVectors() == numVectors(),
             "MultiVector::dots: incompatible blocks");
  LISI_CHECK(out.size() == lanes_.size(),
             "MultiVector::dots: output size must equal numVectors");
  std::vector<lisi::sparse::DotArgs> dotArgs(lanes_.size());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    dotArgs[k] = {lanes_[k].localView(), other.lanes_[k].localView()};
  }
  lisi::sparse::distDots(map_->comm(),
                         std::span<const lisi::sparse::DotArgs>(dotArgs), out);
}

void MultiVector::norms2(std::span<double> out) const {
  dots(*this, out);
  // Each lane matches Vector::norm2 bitwise: same local sum, same
  // elementwise reduction schedule, sqrt applied after.
  for (double& v : out) v = std::sqrt(v);
}

void MultiVector::extract(std::span<double> localValues) const {
  const auto n = static_cast<std::size_t>(myLength());
  LISI_CHECK(localValues.size() == n * lanes_.size(),
             "MultiVector::extract: output size mismatch");
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const std::span<const double> lane = lanes_[k].localView();
    std::copy(lane.begin(), lane.end(), localValues.begin() +
                                            static_cast<std::ptrdiff_t>(k * n));
  }
}

}  // namespace aztec
