#include "plan/ir.hpp"

namespace csrlmrm::plan {

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kConstTrue:
      return "const:tt";
    case OpKind::kConstFalse:
      return "const:ff";
    case OpKind::kLabelSet:
      return "labelset";
    case OpKind::kNot:
      return "not";
    case OpKind::kAnd:
      return "and";
    case OpKind::kOr:
      return "or";
    case OpKind::kSteadySolve:
      return "steady";
    case OpKind::kNextSolve:
      return "next";
    case OpKind::kUntilSolve:
      return "until";
    case OpKind::kRewardSolve:
      return "reward";
    case OpKind::kCompare:
      return "compare";
  }
  return "?";
}

}  // namespace csrlmrm::plan
