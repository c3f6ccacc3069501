// Shared harness for the table/figure reproduction benches: runs one until
// experiment (fixed Phi/Psi state formulas over one model) with either
// numerical engine, timing each query, and prints paper-style table rows.
#pragma once

#include <cstddef>
#include <string>

#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "numeric/class_explorer.hpp"
#include "oracle/path_explorer.hpp"

namespace csrlmrm::benchsupport {

/// One until experiment: Phi U^[0,t]_[0,r] Psi over a fixed model, with Phi
/// and Psi given as CSRL *state* formulas (e.g. "Sup", "failed", "TT").
class UntilExperiment {
 public:
  UntilExperiment(const core::Mrm& model, const std::string& phi, const std::string& psi);

  struct Result {
    double probability = 0.0;
    double error_bound = 0.0;  // 0 for discretization (no a-priori bound)
    double seconds = 0.0;
    std::size_t paths_stored = 0;
    std::size_t signature_classes = 0;
    std::size_t nodes_expanded = 0;
  };

  /// Uniformization/DFPG with truncation probability w (section 4.6): the
  /// thesis-faithful reference engine, one DFS per start state.
  Result uniformization(core::StateIndex start, double t, double r, double w,
                        bool aggregate_signatures = true) const;

  /// Discretization with step d (section 4.5).
  Result discretization(core::StateIndex start, double t, double r, double d) const;

  /// Signature-class DP over a batch of start states (one frontier sweep for
  /// the whole batch, see class_explorer.hpp) — the engine and configuration
  /// the checker runs. Every returned Result carries the batch's total
  /// wall-clock seconds and the shared diagnostic counts.
  std::vector<Result> classdp_batch(const std::vector<core::StateIndex>& starts, double t,
                                    double r, double w, unsigned threads = 0) const;

  const core::Mrm& transformed_model() const { return transformed_; }
  const std::vector<bool>& psi_mask() const { return psi_; }
  const std::vector<bool>& dead_mask() const { return dead_; }

 private:
  struct Prepared {
    core::Mrm transformed;
    std::vector<bool> psi;
    std::vector<bool> dead;
  };
  static Prepared prepare(const core::Mrm& model, const std::string& phi,
                          const std::string& psi);
  explicit UntilExperiment(Prepared prepared);

  core::Mrm transformed_;  // M[!Phi v Psi]
  std::vector<bool> psi_;
  std::vector<bool> dead_;
  numeric::UniformizationUntilEngine engine_;
  numeric::SignatureClassUntilEngine class_engine_;
};

/// Prints the standard bench header: title plus the model/formula recap.
void print_header(const std::string& title, const std::string& subtitle);

/// Value formatting mirroring the thesis tables (long decimal P, scientific
/// E, fixed-point seconds).
std::string format_probability(double p);
std::string format_error(double e);
std::string format_seconds(double s);

}  // namespace csrlmrm::benchsupport
