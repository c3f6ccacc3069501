// WaveLAN energy study: the motivating scenario of the thesis's introduction
// (energy-aware wireless interfaces). Sweeps the energy budget and the
// deadline of Example 3.3's properties to show how impulse rewards (mode
// switch costs) change verdicts compared to a rate-reward-only model.
#include <cstdio>

#include "checker/until.hpp"
#include "core/transform.hpp"
#include "models/wavelan.hpp"

int main() {
  using namespace csrlmrm;
  const core::Mrm with_impulses = models::make_wavelan();

  // The same model with the impulse rewards stripped: what [Bai00]/[Hav02]
  // could analyze before this thesis's extension.
  const core::Mrm without_impulses(with_impulses.ctmc(),
                                   std::vector<double>(with_impulses.state_rewards()));

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-15;

  const auto idle = with_impulses.labels().states_with("idle");
  const auto busy = with_impulses.labels().states_with("busy");

  std::printf("P(idle, idle U[0,t][0,r] busy): probability of serving traffic from the\n");
  std::printf("idle mode within deadline t (hours) and energy budget r, with and\n");
  std::printf("without the mode-switch impulse costs.\n\n");
  std::printf("%-6s %-8s %-14s %-14s %-10s\n", "t", "r", "P(impulse)", "P(rate-only)",
              "delta");
  for (const double t : {0.05, 0.2, 1.0}) {
    for (const double r : {1.0, 10.0, 100.0, 2000.0}) {
      const auto with = checker::until_probabilities(with_impulses, idle, busy,
                                                     logic::up_to(t), logic::up_to(r), options);
      const auto without =
          checker::until_probabilities(without_impulses, idle, busy, logic::up_to(t),
                                       logic::up_to(r), options);
      const double pw = with[models::kWavelanIdle].probability;
      const double po = without[models::kWavelanIdle].probability;
      std::printf("%-6.2f %-8.0f %-14.8f %-14.8f %-10.2e\n", t, r, pw, po, po - pw);
    }
  }

  std::printf(
      "\nReading the table: at generous budgets the impulse costs are negligible,\n"
      "but at small r the 0.36-0.43 mJ mode-switch impulses visibly reduce the\n"
      "probability (every path into a busy mode pays them) - the effect a\n"
      "rate-reward-only analysis cannot express (thesis section 1.3).\n");
  return 0;
}
