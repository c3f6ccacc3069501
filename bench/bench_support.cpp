#include "bench_support.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "checker/sat.hpp"
#include "logic/parser.hpp"
#include "numeric/discretization.hpp"

namespace csrlmrm::benchsupport {

namespace {
double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}
}  // namespace

UntilExperiment::Prepared UntilExperiment::prepare(const core::Mrm& model,
                                                   const std::string& phi,
                                                   const std::string& psi) {
  checker::ModelChecker checker(model);
  const std::vector<bool> sat_phi = checker.satisfaction_set(logic::parse_formula(phi));
  const std::vector<bool> sat_psi = checker.satisfaction_set(logic::parse_formula(psi));

  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    absorb[s] = !sat_phi[s] || sat_psi[s];
    dead[s] = !sat_phi[s] && !sat_psi[s];
  }
  return {core::make_absorbing(model, absorb), sat_psi, std::move(dead)};
}

UntilExperiment::UntilExperiment(Prepared prepared)
    : transformed_(std::move(prepared.transformed)),
      psi_(std::move(prepared.psi)),
      dead_(std::move(prepared.dead)),
      engine_(transformed_, psi_, dead_),
      class_engine_(transformed_, psi_, dead_) {}

UntilExperiment::UntilExperiment(const core::Mrm& model, const std::string& phi,
                                 const std::string& psi)
    : UntilExperiment(prepare(model, phi, psi)) {}

UntilExperiment::Result UntilExperiment::uniformization(core::StateIndex start, double t,
                                                        double r, double w,
                                                        bool aggregate_signatures) const {
  numeric::PathGeneratorOptions options;
  options.truncation_probability = w;
  options.aggregate_signatures = aggregate_signatures;
  const auto begin = std::chrono::steady_clock::now();
  const auto computed = engine_.compute(start, t, r, options);
  Result result;
  result.probability = computed.probability;
  result.error_bound = computed.error_bound;
  result.seconds = elapsed_seconds(begin);
  result.paths_stored = computed.paths_stored;
  result.signature_classes = computed.signature_classes;
  result.nodes_expanded = computed.nodes_expanded;
  return result;
}

std::vector<UntilExperiment::Result> UntilExperiment::classdp_batch(
    const std::vector<core::StateIndex>& starts, double t, double r, double w,
    unsigned threads) const {
  numeric::PathExplorerOptions options;
  options.truncation_probability = w;
  options.threads = threads;
  const auto begin = std::chrono::steady_clock::now();
  const auto batch = class_engine_.compute_batch(starts, t, r, options);
  const double seconds = elapsed_seconds(begin);
  std::vector<Result> results(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results[i].probability = batch[i].probability;
    results[i].error_bound = batch[i].error_bound;
    results[i].seconds = seconds;
    results[i].paths_stored = batch[i].paths_stored;
    results[i].signature_classes = batch[i].signature_classes;
    results[i].nodes_expanded = batch[i].nodes_expanded;
  }
  return results;
}

UntilExperiment::Result UntilExperiment::discretization(core::StateIndex start, double t,
                                                        double r, double d) const {
  numeric::DiscretizationOptions options;
  options.step = d;
  const auto begin = std::chrono::steady_clock::now();
  const auto computed =
      numeric::until_probability_discretization(transformed_, psi_, start, t, r, options);
  Result result;
  result.probability = computed.probability;
  result.seconds = elapsed_seconds(begin);
  return result;
}

void print_header(const std::string& title, const std::string& subtitle) {
  std::printf("== %s ==\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("\n");
}

std::string format_probability(double p) {
  std::ostringstream out;
  out.precision(17);
  out << p;
  return out.str();
}

std::string format_error(double e) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6e", e);
  return buffer;
}

std::string format_seconds(double s) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", s);
  return buffer;
}

}  // namespace csrlmrm::benchsupport
