// Per-file analysis context shared by every rule: path classification (which
// tree and subsystem the file lives in), suppression comments, and a
// brace-matched map of function definition spans recovered from the token
// stream. Rules read this instead of re-deriving structure themselves.
#pragma once

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace csrlmrm::lint {

struct FileIr;

/// Which top-level tree the file belongs to, relative to the repo root.
enum class Tree { kSrc, kTests, kBench, kExamples, kTools, kOther };

/// A function definition recovered from the token stream: `name` is the
/// identifier preceding the parameter list (empty for lambdas and for shapes
/// the heuristic cannot name), and [open_brace, close_brace] index into
/// LexedFile::tokens.
struct FunctionSpan {
  std::string name;
  std::size_t open_brace;
  std::size_t close_brace;
};

class FileContext {
 public:
  explicit FileContext(LexedFile file);
  /// Constructs the context with a companion header (the sibling .hpp/.h of a
  /// scanned .cpp): the companion's member declarations and guarded_by
  /// annotations feed this file's IR, so definitions are checked against the
  /// class shape their header declares.
  FileContext(LexedFile file, LexedFile companion_header);
  ~FileContext();
  FileContext(FileContext&&) noexcept;
  FileContext& operator=(FileContext&&) noexcept;

  const LexedFile& file() const { return file_; }
  const std::vector<Token>& tokens() const { return file_.tokens; }
  std::string_view text(const Token& t) const { return file_.text(t); }
  const std::string& path() const { return file_.path; }

  Tree tree() const { return tree_; }
  bool is_header() const { return is_header_; }
  /// Subsystem directory under src/ ("checker", "numeric", ...); empty
  /// outside src/. Files under tests/oracle/ (the test-oracle library) count
  /// as the src/ subsystem "oracle".
  const std::string& subsystem() const { return subsystem_; }
  /// True for the subsystems whose results must be bitwise deterministic and
  /// fast: the checker/numeric/linalg/core/graph/parallel layers and the
  /// test oracles.
  bool in_hot_path() const;

  /// True when `rule` is suppressed on `line` (via `lint:allow(rule)` on the
  /// line itself or a comment-only line directly above) or file-wide (via
  /// `lint:allow-file(rule)` anywhere).
  bool suppressed(std::string_view rule, std::size_t line) const;

  const std::vector<FunctionSpan>& functions() const { return functions_; }
  /// Names of every function span enclosing token `tok_index`, innermost last.
  std::vector<std::string> enclosing_functions(std::size_t tok_index) const;
  /// True when any enclosing function name starts with one of the approved
  /// comparison-helper prefixes ("approx_", "exactly_").
  bool in_approved_helper(std::size_t tok_index) const;

  /// Identifiers declared in this file with an unordered associative type
  /// (std::unordered_map / std::unordered_set / flavors thereof).
  const std::set<std::string>& unordered_names() const { return unordered_names_; }

  /// The flow-aware IR (fields, methods, lock scopes, eviction classes) built
  /// by the pass pipeline in ir.cpp; includes companion-header declarations.
  const FileIr& ir() const { return *ir_; }
  /// The companion header context, or nullptr when scanned standalone.
  const FileContext* companion() const { return companion_.get(); }

 private:
  void init();
  void classify_path();
  void scan_suppressions();
  void scan_functions();
  void scan_unordered_declarations();

  LexedFile file_;
  Tree tree_ = Tree::kOther;
  bool is_header_ = false;
  std::string subsystem_;
  // (line, rule) pairs plus file-wide rule names.
  std::set<std::pair<std::size_t, std::string>> line_allows_;
  std::set<std::string, std::less<>> file_allows_;
  std::vector<FunctionSpan> functions_;
  std::set<std::string> unordered_names_;
  std::unique_ptr<FileContext> companion_;
  std::shared_ptr<const FileIr> ir_;
};

}  // namespace csrlmrm::lint
