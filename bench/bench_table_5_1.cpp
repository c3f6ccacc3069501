// Table 5.1 — "Result without Impulse Rewards": discretization convergence
// on the cell-phone case study (substitute for [Hav02], see DESIGN.md §4).
//
// Formula: P(>0.5)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated] from
// the Call_Idle start state; d = 1/16, 1/32, 1/64. The paper's reference
// value (0.49540399 for the original [Hav02] model) is replaced by our
// uniformization engine at w = 1e-14 — the cross-validation argument the
// thesis itself makes.
#include <cstdio>

#include "bench_support.hpp"
#include "oracle/cellphone.hpp"

int main() {
  using namespace csrlmrm;
  const core::Mrm model = models::make_cellphone();
  benchsupport::UntilExperiment experiment(model, "Call_Idle || Doze", "Call_Initiated");

  const double t = 24.0;
  const double r = 600.0;
  const auto start = models::kCellphoneStart;

  benchsupport::print_header(
      "Table 5.1 - discretization without impulse rewards (cell-phone substitute)",
      "P[(Call_Idle v Doze) U[0,24][0,600] Call_Initiated] from Call_Idle\n"
      "paper (original [Hav02] model): 0.49564786 / 0.49545080 / 0.49534976,\n"
      "converging to reference 0.49540399; our model: own reference below");

  const auto reference = experiment.uniformization(start, t, r, 1e-14);
  std::printf("reference (uniformization, w=1e-14): %s  (error bound %s)\n\n",
              benchsupport::format_probability(reference.probability).c_str(),
              benchsupport::format_error(reference.error_bound).c_str());

  std::printf("%-8s  %-22s  %-12s  %s\n", "d", "Pr{Y(24)<=600, X|=Psi}", "|P-ref|",
              "time(s)");
  for (const int denominator : {16, 32, 64}) {
    const double d = 1.0 / denominator;
    const auto result = experiment.discretization(start, t, r, d);
    std::printf("1/%-6d  %-22.17g  %-12.3e  %s\n", denominator, result.probability,
                std::abs(result.probability - reference.probability),
                benchsupport::format_seconds(result.seconds).c_str());
  }
  std::printf("\nExpected shape: |P-ref| shrinks ~linearly in d; time grows ~4x per halving"
              "\n(the thesis reports 7.99s / 65.86s / 518.67s on 2004 hardware).\n");
  return 0;
}
