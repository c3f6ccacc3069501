#include "oracle/cellphone.hpp"

namespace csrlmrm::models {

core::Mrm make_cellphone() {
  const std::size_t n = 5;

  // Rates per hour. The phone dozes most of the time, wakes into a
  // low-traffic idle mode, occasionally enters a high-traffic idle mode, and
  // initiates calls from either idle mode; from doze it may also be switched
  // off for good. Magnitudes are kept small (Lambda ~ 0.7/h) so that the
  // uniformization engine remains usable at the 24 h horizon of the
  // Table 5.1 experiment — the thesis itself notes path enumeration is only
  // practical for small Lambda*t.
  core::RateMatrixBuilder rates(n);
  rates.add(kCellDoze, kCellIdleLow, 0.12);
  rates.add(kCellIdleLow, kCellDoze, 0.2);
  rates.add(kCellIdleLow, kCellIdleHigh, 0.06);
  rates.add(kCellIdleHigh, kCellIdleLow, 0.12);
  rates.add(kCellIdleLow, kCellInitiated, 0.06);
  rates.add(kCellIdleHigh, kCellInitiated, 0.12);
  rates.add(kCellDoze, kCellOff, 0.0005);

  core::Labeling labels(n);
  labels.add(kCellDoze, "Doze");
  labels.add(kCellIdleLow, "Call_Idle");
  labels.add(kCellIdleHigh, "Call_Idle");
  labels.add(kCellInitiated, "Call_Initiated");
  labels.add(kCellOff, "Off");

  // Integer power draws (units per hour) so discretization needs no scaling.
  const std::vector<double> state_rewards{2.0, 30.0, 45.0, 50.0, 0.0};

  // Zero impulse rewards: Table 5.1 exercises the pure rate-reward path.
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), state_rewards);
}

}  // namespace csrlmrm::models
