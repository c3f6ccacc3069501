#include "core/rate_matrix.hpp"

#include <cmath>
#include <stdexcept>
#include "core/approx.hpp"

namespace csrlmrm::core {

RateMatrixBuilder::RateMatrixBuilder(std::size_t num_states)
    : builder_(num_states, num_states) {}

void RateMatrixBuilder::add(StateIndex from, StateIndex to, double rate) {
  if (!std::isfinite(rate) || rate < 0.0) {
    throw std::invalid_argument("RateMatrixBuilder::add: rate must be finite and >= 0");
  }
  builder_.add(from, to, rate);
}

RateMatrix RateMatrixBuilder::build() const { return RateMatrix(builder_.build()); }

RateMatrix::RateMatrix(linalg::CsrMatrix rates) : rates_(std::move(rates)) {
  if (rates_.rows() != rates_.cols()) {
    throw std::invalid_argument("RateMatrix: matrix not square");
  }
  exit_rates_.assign(rates_.rows(), 0.0);
  for (StateIndex s = 0; s < rates_.rows(); ++s) {
    double total = 0.0;
    for (const auto& e : rates_.row(s)) {
      if (e.value < 0.0) {
        throw std::invalid_argument("RateMatrix: negative rate at (" + std::to_string(s) +
                                    "," + std::to_string(e.col) + ")");
      }
      total += e.value;
    }
    exit_rates_[s] = total;
    max_exit_rate_ = std::max(max_exit_rate_, total);
  }
}

}  // namespace csrlmrm::core
