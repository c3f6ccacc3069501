#include "context.hpp"

#include <algorithm>
#include <array>

#include "ir.hpp"

namespace csrlmrm::lint {

namespace {

// Control keywords that can precede a parenthesized clause + `{` without
// being a function name.
bool is_control_keyword(std::string_view word) {
  static constexpr std::array<std::string_view, 8> kWords = {
      "if", "for", "while", "switch", "catch", "return", "do", "else"};
  return std::find(kWords.begin(), kWords.end(), word) != kWords.end();
}

// Tokens that may sit between a function's closing `)` and its `{`.
bool is_decl_tail(std::string_view word) {
  static constexpr std::array<std::string_view, 7> kWords = {
      "const", "noexcept", "override", "final", "mutable", "volatile", "&&"};
  return std::find(kWords.begin(), kWords.end(), word) != kWords.end() || word == "&";
}

}  // namespace

FileContext::FileContext(LexedFile file) : file_(std::move(file)) { init(); }

FileContext::FileContext(LexedFile file, LexedFile companion_header)
    : file_(std::move(file)),
      companion_(std::make_unique<FileContext>(std::move(companion_header))) {
  init();
}

FileContext::~FileContext() = default;
FileContext::FileContext(FileContext&&) noexcept = default;
FileContext& FileContext::operator=(FileContext&&) noexcept = default;

void FileContext::init() {
  classify_path();
  scan_suppressions();
  scan_functions();
  scan_unordered_declarations();
  ir_ = std::make_shared<const FileIr>(build_file_ir(*this, companion_.get()));
}

void FileContext::classify_path() {
  const std::string& p = file_.path;
  is_header_ = p.ends_with(".hpp") || p.ends_with(".h");

  auto segment_after = [&p](std::string_view dir) -> std::string {
    const std::string needle = std::string("/").append(dir).append("/");
    std::size_t at = p.find(needle);
    if (at == std::string::npos) {
      if (p.rfind(std::string(dir).append("/"), 0) == 0) {
        at = 0;
      } else {
        return {};
      }
    } else {
      at += 1;  // skip the leading '/'
    }
    const std::size_t rest = at + dir.size() + 1;
    const std::size_t slash = p.find('/', rest);
    if (slash == std::string::npos) return {};
    return p.substr(rest, slash - rest);
  };

  // The test-oracle library (DFPG, the forward series, Jacobi, the
  // simulator) is held to the product's determinism and observability rules
  // as the src/ subsystem "oracle".
  if (p.find("/tests/oracle/") != std::string::npos || p.rfind("tests/oracle/", 0) == 0) {
    tree_ = Tree::kSrc;
    subsystem_ = "oracle";
    return;
  }

  struct TreeName {
    std::string_view dir;
    Tree tree;
  };
  static constexpr std::array<TreeName, 5> kTrees = {{{"src", Tree::kSrc},
                                                      {"tests", Tree::kTests},
                                                      {"bench", Tree::kBench},
                                                      {"examples", Tree::kExamples},
                                                      {"tools", Tree::kTools}}};
  for (const auto& [dir, tree] : kTrees) {
    const std::string needle = std::string("/").append(dir).append("/");
    if (p.find(needle) != std::string::npos || p.rfind(std::string(dir).append("/"), 0) == 0) {
      tree_ = tree;
      if (tree == Tree::kSrc) subsystem_ = segment_after(dir);
      return;
    }
  }
  tree_ = Tree::kOther;
}

bool FileContext::in_hot_path() const {
  static constexpr std::array<std::string_view, 7> kHot = {
      "checker", "numeric", "linalg", "core", "graph", "parallel", "oracle"};
  return tree_ == Tree::kSrc &&
         std::find(kHot.begin(), kHot.end(), subsystem_) != kHot.end();
}

void FileContext::scan_suppressions() {
  // Which lines carry code tokens, so a comment-only `lint:allow` line can
  // forward its suppression to the next code line.
  std::set<std::size_t> code_lines;
  for (const Token& t : file_.tokens) code_lines.insert(t.line);

  for (const Comment& c : file_.comments) {
    const std::string_view body = file_.text(c);
    std::size_t at = 0;
    while ((at = body.find("lint:allow", at)) != std::string::npos) {
      std::size_t cursor = at + std::string_view("lint:allow").size();
      bool file_wide = false;
      if (body.substr(cursor, 5) == "-file") {
        file_wide = true;
        cursor += 5;
      }
      at = cursor;
      if (cursor >= body.size() || body[cursor] != '(') continue;
      const std::size_t close = body.find(')', cursor);
      if (close == std::string::npos) continue;
      std::string_view list = body.substr(cursor + 1, close - cursor - 1);
      at = close;
      // Split on commas, trim spaces.
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        std::string_view name = list.substr(0, comma);
        list = comma == std::string_view::npos ? std::string_view{} : list.substr(comma + 1);
        const std::size_t b = name.find_first_not_of(" \t");
        const std::size_t e = name.find_last_not_of(" \t");
        if (b == std::string_view::npos) continue;
        name = name.substr(b, e - b + 1);
        if (file_wide) {
          file_allows_.insert(std::string(name));
        } else if (c.owns_line && !code_lines.count(c.line)) {
          // Comment stands alone: the allowance targets the next code line,
          // skipping any further comment-only lines of the justification.
          const auto next = code_lines.upper_bound(c.end_line);
          if (next != code_lines.end()) line_allows_.insert({*next, std::string(name)});
        } else {
          line_allows_.insert({c.line, std::string(name)});
        }
      }
    }
  }
}

bool FileContext::suppressed(std::string_view rule, std::size_t line) const {
  if (file_allows_.count(rule) || file_allows_.count("all")) return true;
  return line_allows_.count({line, std::string(rule)}) ||
         line_allows_.count({line, "all"});
}

// Recovers function definition spans by brace matching. When a `{` opens, we
// look backwards: skip declaration-tail tokens (`const`, `noexcept`, a
// trailing `-> Type`), then require a balanced `(...)` parameter list, then
// take the identifier before its `(` as the function name — unless it is a
// control keyword. Lambdas and expression braces get anonymous spans. This is
// a heuristic: good enough to scope rules like the approx_* exemption, not a
// parser.
void FileContext::scan_functions() {
  const auto& toks = file_.tokens;
  std::vector<std::pair<std::string, std::size_t>> stack;  // (name, open index)

  auto name_before_brace = [&](std::size_t brace) -> std::string {
    if (brace == 0) return {};
    std::size_t i = brace - 1;
    // Skip a trailing return type: scan back to `->` within a small window.
    for (std::size_t back = 0; back < 4 && i > 0; ++back) {
      if (toks[i].kind == TokenKind::kPunct && file_.text(toks[i]) == ">") break;  // template tail
      if (toks[i].kind == TokenKind::kPunct && file_.text(toks[i]) == "->") {
        if (i == 0) return {};
        i = i - 1;
        break;
      }
      if (toks[i].kind == TokenKind::kIdentifier || file_.text(toks[i]) == "::" ||
          file_.text(toks[i]) == "*" || file_.text(toks[i]) == "&") {
        if (i == 0) return {};
        --i;
        continue;
      }
      break;
    }
    // Skip declaration-tail keywords and ref-qualifiers.
    while (i > 0 && toks[i].kind == TokenKind::kIdentifier && is_decl_tail(file_.text(toks[i]))) {
      --i;
    }
    while (i > 0 && toks[i].kind == TokenKind::kPunct &&
           (file_.text(toks[i]) == "&" || file_.text(toks[i]) == "&&")) {
      --i;
    }
    if (toks[i].kind != TokenKind::kPunct || file_.text(toks[i]) != ")") return {};
    // Match the parameter list backwards.
    int depth = 0;
    while (true) {
      const std::string_view t = file_.text(toks[i]);
      if (toks[i].kind == TokenKind::kPunct && t == ")") ++depth;
      if (toks[i].kind == TokenKind::kPunct && t == "(") {
        --depth;
        if (depth == 0) break;
      }
      if (i == 0) return {};
      --i;
    }
    if (i == 0) return {};
    const Token& prev = toks[i - 1];
    if (prev.kind != TokenKind::kIdentifier) return {};
    const std::string_view word = file_.text(prev);
    if (is_control_keyword(word)) return {};
    return std::string(word);
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    const std::string_view t = file_.text(toks[i]);
    if (t == "{") {
      stack.emplace_back(name_before_brace(i), i);
    } else if (t == "}" && !stack.empty()) {
      auto [name, open] = std::move(stack.back());
      stack.pop_back();
      if (!name.empty()) functions_.push_back({std::move(name), open, i});
    }
  }
  // Unclosed spans (truncated file) are dropped: rules fall back to
  // file-level scoping.
  std::sort(functions_.begin(), functions_.end(),
            [](const FunctionSpan& a, const FunctionSpan& b) { return a.open_brace < b.open_brace; });
}

std::vector<std::string> FileContext::enclosing_functions(std::size_t tok_index) const {
  std::vector<std::string> names;
  for (const FunctionSpan& f : functions_) {
    if (f.open_brace <= tok_index && tok_index <= f.close_brace) names.push_back(f.name);
  }
  return names;
}

bool FileContext::in_approved_helper(std::size_t tok_index) const {
  for (const FunctionSpan& f : functions_) {
    if (f.open_brace <= tok_index && tok_index <= f.close_brace &&
        (f.name.rfind("approx_", 0) == 0 || f.name.rfind("exactly_", 0) == 0)) {
      return true;
    }
  }
  return false;
}

// Find `unordered_map<...> name` / `unordered_set<...> name` declarations and
// remember the declared identifiers, so the iteration rule can recognize
// range-fors and begin()/end() calls over them anywhere else in the file.
void FileContext::scan_unordered_declarations() {
  const auto& toks = file_.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    const std::string_view t = file_.text(toks[i]);
    if (t != "unordered_map" && t != "unordered_set" && t != "unordered_multimap" &&
        t != "unordered_multiset") {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || file_.text(toks[j]) != "<") continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      const std::string_view w = file_.text(toks[j]);
      if (toks[j].kind != TokenKind::kPunct) continue;
      if (w == "<") ++depth;
      if (w == ">") {
        --depth;
        if (depth == 0) break;
      }
      if (w == ">>") {
        depth -= 2;
        if (depth <= 0) break;
      }
      if (w == ";") break;  // malformed; bail
    }
    if (j >= toks.size()) continue;
    // After the closing '>' expect: [&|*]? identifier followed by ; = { (
    ++j;
    while (j < toks.size() && toks[j].kind == TokenKind::kPunct &&
           (file_.text(toks[j]) == "&" || file_.text(toks[j]) == "*")) {
      ++j;
    }
    if (j + 1 < toks.size() && toks[j].kind == TokenKind::kIdentifier) {
      const std::string_view next = file_.text(toks[j + 1]);
      if (next == ";" || next == "=" || next == "{" || next == "," || next == ")") {
        unordered_names_.insert(std::string(file_.text(toks[j])));
      }
    }
  }
}

}  // namespace csrlmrm::lint
