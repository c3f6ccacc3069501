#include "plan/cost_model.hpp"

#include "numeric/poisson.hpp"

namespace csrlmrm::plan {

EnginePrediction predict_until_engine(const core::Mrm& transformed, double t,
                                      const checker::CheckerOptions& options) {
  EnginePrediction prediction;
  // The decision itself comes from the run-time rule — never re-derive it
  // here, or a pinned op could run a different engine than auto would.
  prediction.choice = checker::choose_until_engine(transformed, t, options);

  // Replicate the rule's inputs for the printer.
  const std::size_t n = transformed.num_states();
  std::size_t live = 0;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (transformed.rates().exit_rate(s) > 0.0) ++live;
  }
  prediction.live_states = live;
  const double mean = transformed.rates().max_exit_rate() * t;
  prediction.poisson_levels =
      mean > 0.0 ? numeric::poisson_truncation_point(
                       mean, options.uniformization.truncation_probability)
                 : 0;

  const std::string work = std::to_string(prediction.live_states) + "x" +
                           std::to_string(prediction.poisson_levels) + " nodes vs budget " +
                           std::to_string(options.uniformization.max_nodes);
  if (prediction.choice.method == checker::UntilMethod::kDiscretization) {
    prediction.rationale = "discretization: uniformization over budget (" + work + ")";
  } else if (prediction.choice.engine == checker::UntilEngine::kDfpg) {
    prediction.rationale = "dfpg: aggregate_signatures disabled";
  } else {
    prediction.rationale = "classdp+hybrid: within budget (" + work + ")";
  }
  return prediction;
}

}  // namespace csrlmrm::plan
