// Abstract syntax of CSRL (Definition 3.5).
//
// State formulas:  tt | ff | a | !Phi | Phi || Psi | Phi && Psi
//                | S(op p) Phi | P(op p)[ phi ]
// Path formulas:   X[I][J] Phi | Phi U[I][J] Psi
//
// Nodes are immutable and shared (std::shared_ptr<const Formula>), so
// sub-formulas can be reused freely and the checker can memoize satisfaction
// sets per node identity.
#pragma once

#include <memory>
#include <string>

#include "logic/interval.hpp"

namespace csrlmrm::logic {

/// Probability comparison operators appearing in S and P operators.
enum class Comparison { kLess, kLessEqual, kGreater, kGreaterEqual };

/// Applies a comparison: `value <op> bound`.
bool compare(double value, Comparison op, double bound);

/// Printable form ("<", "<=", ">", ">=").
std::string to_string(Comparison op);

/// Discriminator for Formula nodes.
enum class FormulaKind {
  kTrue,
  kFalse,
  kAtomic,
  kNot,
  kOr,
  kAnd,
  kSteady,
  kProbNext,
  kProbUntil,
  kExpectedReward,
};

/// The reward query inside an R operator (an extension over the thesis,
/// following the feature set of the MRMC successor tool):
///   kCumulative    R(op x)[C[0,t]] — expected reward accumulated by time t
///   kReachability  R(op x)[F Phi]  — expected reward until first reaching
///                                    a Phi-state (+infinity if not almost
///                                    surely reached)
///   kLongRun       R(op x)[S]      — long-run reward rate
enum class RewardQuery { kCumulative, kReachability, kLongRun };

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// Base of all CSRL state-formula nodes.
struct Formula {
  explicit Formula(FormulaKind k) : kind(k) {}
  virtual ~Formula() = default;
  Formula(const Formula&) = delete;
  Formula& operator=(const Formula&) = delete;

  const FormulaKind kind;
};

/// tt.
struct TrueFormula final : Formula {
  TrueFormula() : Formula(FormulaKind::kTrue) {}
};

/// ff (= !tt; kept explicit for faithful printing).
struct FalseFormula final : Formula {
  FalseFormula() : Formula(FormulaKind::kFalse) {}
};

/// An atomic proposition a in AP.
struct AtomicFormula final : Formula {
  explicit AtomicFormula(std::string n) : Formula(FormulaKind::kAtomic), name(std::move(n)) {}
  const std::string name;
};

/// !Phi.
struct NotFormula final : Formula {
  explicit NotFormula(FormulaPtr f) : Formula(FormulaKind::kNot), operand(std::move(f)) {}
  const FormulaPtr operand;
};

/// Phi || Psi.
struct OrFormula final : Formula {
  OrFormula(FormulaPtr l, FormulaPtr r)
      : Formula(FormulaKind::kOr), lhs(std::move(l)), rhs(std::move(r)) {}
  const FormulaPtr lhs;
  const FormulaPtr rhs;
};

/// Phi && Psi (derived operator, kept explicit for faithful printing).
struct AndFormula final : Formula {
  AndFormula(FormulaPtr l, FormulaPtr r)
      : Formula(FormulaKind::kAnd), lhs(std::move(l)), rhs(std::move(r)) {}
  const FormulaPtr lhs;
  const FormulaPtr rhs;
};

/// S(op p) Phi — the steady-state probability of the Phi-states meets the
/// bound.
struct SteadyFormula final : Formula {
  SteadyFormula(Comparison o, double b, FormulaPtr f)
      : Formula(FormulaKind::kSteady), op(o), bound(b), operand(std::move(f)) {}
  const Comparison op;
  const double bound;
  const FormulaPtr operand;
};

/// P(op p)[ X[I][J] Phi ].
struct ProbNextFormula final : Formula {
  ProbNextFormula(Comparison o, double b, Interval time, Interval reward, FormulaPtr f)
      : Formula(FormulaKind::kProbNext),
        op(o),
        bound(b),
        time_bound(time),
        reward_bound(reward),
        operand(std::move(f)) {}
  const Comparison op;
  const double bound;
  const Interval time_bound;    // I
  const Interval reward_bound;  // J
  const FormulaPtr operand;
};

/// P(op p)[ Phi U[I][J] Psi ].
struct ProbUntilFormula final : Formula {
  ProbUntilFormula(Comparison o, double b, Interval time, Interval reward, FormulaPtr l,
                   FormulaPtr r)
      : Formula(FormulaKind::kProbUntil),
        op(o),
        bound(b),
        time_bound(time),
        reward_bound(reward),
        lhs(std::move(l)),
        rhs(std::move(r)) {}
  const Comparison op;
  const double bound;
  const Interval time_bound;    // I
  const Interval reward_bound;  // J
  const FormulaPtr lhs;
  const FormulaPtr rhs;
};

/// R(op x)[ C[0,t] | F Phi | S ] — expected-reward bound.
struct ExpectedRewardFormula final : Formula {
  ExpectedRewardFormula(Comparison o, double b, RewardQuery q, double t, FormulaPtr f)
      : Formula(FormulaKind::kExpectedReward),
        op(o),
        bound(b),
        query(q),
        time_horizon(t),
        operand(std::move(f)) {}
  const Comparison op;
  const double bound;          // the x in R(op x); any non-negative real
  const RewardQuery query;
  const double time_horizon;   // t for kCumulative; unused otherwise
  const FormulaPtr operand;    // Phi for kReachability; null otherwise
};

// --- Factory helpers (the preferred way to build formulas in code) --------

FormulaPtr make_true();
FormulaPtr make_false();
FormulaPtr make_atomic(std::string name);
FormulaPtr make_not(FormulaPtr operand);
FormulaPtr make_or(FormulaPtr lhs, FormulaPtr rhs);
FormulaPtr make_and(FormulaPtr lhs, FormulaPtr rhs);
FormulaPtr make_steady(Comparison op, double bound, FormulaPtr operand);
FormulaPtr make_prob_next(Comparison op, double bound, Interval time, Interval reward,
                          FormulaPtr operand);
FormulaPtr make_prob_until(Comparison op, double bound, Interval time, Interval reward,
                           FormulaPtr lhs, FormulaPtr rhs);
/// R(op x)[C[0,t]]: expected cumulative reward by time t.
FormulaPtr make_reward_cumulative(Comparison op, double bound, double time_horizon);
/// R(op x)[F Phi]: expected reward until first reaching Phi.
FormulaPtr make_reward_reachability(Comparison op, double bound, FormulaPtr operand);
/// R(op x)[S]: long-run reward rate.
FormulaPtr make_reward_long_run(Comparison op, double bound);

}  // namespace csrlmrm::logic
