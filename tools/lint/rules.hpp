// Rule interface and the default rule set for csrlmrm-lint.
//
// Each rule encodes one project convention the compiler cannot check (see
// README "Lint & sanitizer lanes" for the catalogue with rationale). Rules
// are token-level heuristics by design: they must be fast, dependency-free,
// and conservative enough to run over the whole tree on every ctest
// invocation. False negatives are acceptable; false positives must be rare
// and suppressible via `// lint:allow(<rule>)`.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "context.hpp"

namespace csrlmrm::lint {

/// Monotonic rule-set version: bump whenever a rule is added, removed, or its
/// matching logic changes, so the incremental cache (cache.hpp) invalidates
/// stale verdicts. v1 = the PR 4 token catalogue; v2 = the flow-aware rules
/// (dangling-cache-reference, lock-hygiene, syscall-hygiene) + autofixes;
/// v3 = tests/oracle/ classified as a hot src/ subsystem.
inline constexpr int kRuleSetVersion = 3;

/// One mechanical source edit attached to a diagnostic, applied by --fix.
/// Replaces `length` bytes at `offset` in the original source with
/// `replacement` (length 0 inserts).
struct FixEdit {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::string replacement;
};

struct Diagnostic {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string message;
  std::vector<FixEdit> fixes;  // empty when the rule has no autofix
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  /// One-line rationale shown by --list-rules and in the JSON report.
  virtual std::string_view description() const = 0;
  /// Appends diagnostics for `ctx`. Suppression comments are applied by the
  /// driver afterwards, so rules report every match unconditionally.
  virtual void check(const FileContext& ctx, std::vector<Diagnostic>& out) const = 0;
};

/// The full rule catalogue, in stable order:
///   float-equality, unordered-iteration, unsafe-libm, float-narrowing,
///   naked-new, solver-stats, endl, banned-identifier, pragma-once,
///   reserved-identifier, simd-hygiene, dangling-cache-reference,
///   lock-hygiene, syscall-hygiene
std::vector<std::unique_ptr<Rule>> make_default_rules();

}  // namespace csrlmrm::lint
