#include "lang/parser.hpp"

#include <cctype>
#include <utility>

namespace csrlmrm::lang {

namespace {

// --- Lexer ------------------------------------------------------------------

enum class TokKind {
  kIdent,
  kNumber,
  kString,   // "..."
  kSymbol,   // one of the operator/punctuation spellings below
  kEnd,
};

struct Tok {
  TokKind kind = TokKind::kEnd;
  std::string text;
  double number = 0.0;
  std::size_t line = 1;
};

[[noreturn]] void fail(const std::string& message, std::size_t line) {
  throw SpecError(message + " (line " + std::to_string(line) + ")");
}

std::vector<Tok> lex(const std::string& text) {
  std::vector<Tok> tokens;
  std::size_t i = 0;
  std::size_t line = 1;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comments: //
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_')) {
        ++i;
      }
      tokens.push_back({TokKind::kIdent, text.substr(start, i - start), 0.0, line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      std::size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
        // ".." is the range operator, not part of a number.
        if (text[i] == '.' && i + 1 < n && text[i + 1] == '.') break;
        ++i;
      }
      if (i < n && (text[i] == 'e' || text[i] == 'E')) {
        std::size_t exponent = i + 1;
        if (exponent < n && (text[exponent] == '+' || text[exponent] == '-')) ++exponent;
        if (exponent < n && std::isdigit(static_cast<unsigned char>(text[exponent]))) {
          i = exponent;
          while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
        }
      }
      const std::string spelling = text.substr(start, i - start);
      try {
        tokens.push_back({TokKind::kNumber, spelling, std::stod(spelling), line});
      } catch (const std::exception&) {
        fail("malformed number '" + spelling + "'", line);
      }
      continue;
    }
    if (c == '"') {
      std::size_t start = ++i;
      while (i < n && text[i] != '"' && text[i] != '\n') ++i;
      if (i == n || text[i] != '"') fail("unterminated string literal", line);
      tokens.push_back({TokKind::kString, text.substr(start, i - start), 0.0, line});
      ++i;
      continue;
    }
    // Multi-character symbols first.
    const auto try_symbol = [&](const char* symbol) {
      const std::size_t length = std::string(symbol).size();
      if (text.compare(i, length, symbol) == 0) {
        tokens.push_back({TokKind::kSymbol, symbol, 0.0, line});
        i += length;
        return true;
      }
      return false;
    };
    if (try_symbol("->") || try_symbol("..") || try_symbol("&&") || try_symbol("||") ||
        try_symbol("<=") || try_symbol(">=") || try_symbol("!=")) {
      continue;
    }
    static const char kSingles[] = "[](){};:'=<>!+-*/&?,";
    if (std::string(kSingles).find(c) != std::string::npos) {
      tokens.push_back({TokKind::kSymbol, std::string(1, c), 0.0, line});
      ++i;
      continue;
    }
    fail(std::string("unexpected character '") + c + "'", line);
  }
  tokens.push_back({TokKind::kEnd, "", 0.0, line});
  return tokens;
}

// --- Parser -----------------------------------------------------------------

ExprPtr make_expr(Expr node) { return std::make_shared<Expr>(std::move(node)); }

class Parser {
 public:
  explicit Parser(std::vector<Tok> tokens) : tokens_(std::move(tokens)) {}

  ModelSpec parse_spec() {
    ModelSpec spec;
    while (peek().kind != TokKind::kEnd) {
      if (is_word("const")) {
        parse_constant(spec);
      } else if (is_word("module")) {
        parse_module(spec);
      } else if (is_word("rewards")) {
        parse_rewards(spec);
      } else if (is_word("label")) {
        parse_label(spec);
      } else {
        fail("expected 'const', 'module', 'rewards' or 'label', found '" + peek().text + "'",
             peek().line);
      }
    }
    if (spec.variables.empty()) {
      throw SpecError("specification declares no module variables");
    }
    return spec;
  }

  ExprPtr parse_full_expression() {
    ExprPtr expr = expression();
    if (peek().kind != TokKind::kEnd) {
      fail("trailing input after expression: '" + peek().text + "'", peek().line);
    }
    return expr;
  }

 private:
  const Tok& peek(std::size_t ahead = 0) const {
    return tokens_[std::min(position_ + ahead, tokens_.size() - 1)];
  }
  const Tok& advance() { return tokens_[std::min(position_++, tokens_.size() - 1)]; }
  bool is_word(const char* word, std::size_t ahead = 0) const {
    return peek(ahead).kind == TokKind::kIdent && peek(ahead).text == word;
  }
  bool is_symbol(const char* symbol, std::size_t ahead = 0) const {
    return peek(ahead).kind == TokKind::kSymbol && peek(ahead).text == symbol;
  }
  void expect_symbol(const char* symbol) {
    if (!is_symbol(symbol)) {
      fail(std::string("expected '") + symbol + "', found '" + peek().text + "'",
           peek().line);
    }
    advance();
  }
  void expect_word(const char* word) {
    if (!is_word(word)) {
      fail(std::string("expected '") + word + "', found '" + peek().text + "'", peek().line);
    }
    advance();
  }
  std::string expect_identifier(const char* what) {
    if (peek().kind != TokKind::kIdent) {
      fail(std::string("expected ") + what + ", found '" + peek().text + "'", peek().line);
    }
    return advance().text;
  }

  void parse_constant(ModelSpec& spec) {
    expect_word("const");
    ConstantDecl constant;
    if (is_word("int")) {
      advance();
      constant.is_integer = true;
    } else if (is_word("double")) {
      advance();
    }
    constant.name = expect_identifier("a constant name");
    expect_symbol("=");
    constant.value = expression();
    expect_symbol(";");
    spec.constants.push_back(std::move(constant));
  }

  void parse_module(ModelSpec& spec) {
    expect_word("module");
    spec.module_name = expect_identifier("a module name");
    // Variable declarations: IDENT ':' '[' expr '..' expr ']' [init expr] ';'
    while (peek().kind == TokKind::kIdent && is_symbol(":", 1)) {
      VariableDecl variable;
      variable.name = expect_identifier("a variable name");
      expect_symbol(":");
      expect_symbol("[");
      variable.lower = expression();
      expect_symbol("..");
      variable.upper = expression();
      expect_symbol("]");
      if (is_word("init")) {
        advance();
        variable.init = expression();
      }
      expect_symbol(";");
      spec.variables.push_back(std::move(variable));
    }
    // Commands: '[' ']' guard '->' rate ':' updates [impulse expr] ';'
    while (is_symbol("[")) {
      advance();
      expect_symbol("]");
      Command command;
      command.guard = expression();
      expect_symbol("->");
      command.rate = expression();
      expect_symbol(":");
      command.updates.push_back(parse_update());
      while (is_symbol("&")) {
        advance();
        command.updates.push_back(parse_update());
      }
      if (is_word("impulse")) {
        advance();
        command.impulse = expression();
      }
      expect_symbol(";");
      spec.commands.push_back(std::move(command));
    }
    expect_word("endmodule");
  }

  Update parse_update() {
    expect_symbol("(");
    Update update;
    update.variable = expect_identifier("a variable name in an update");
    expect_symbol("'");
    expect_symbol("=");
    update.value = expression();
    expect_symbol(")");
    return update;
  }

  void parse_rewards(ModelSpec& spec) {
    expect_word("rewards");
    while (!is_word("endrewards")) {
      RewardClause clause;
      clause.guard = expression();
      expect_symbol(":");
      clause.rate = expression();
      expect_symbol(";");
      spec.state_rewards.push_back(std::move(clause));
    }
    expect_word("endrewards");
  }

  void parse_label(ModelSpec& spec) {
    expect_word("label");
    if (peek().kind != TokKind::kString) {
      fail("expected a quoted label name, found '" + peek().text + "'", peek().line);
    }
    LabelDecl label;
    label.name = advance().text;
    if (label.name.empty()) fail("label name must not be empty", peek().line);
    expect_symbol("=");
    label.condition = expression();
    expect_symbol(";");
    spec.labels.push_back(std::move(label));
  }

  // Precedence: ?: < || < && < (= !=) < (< <= > >=) < (+ -) < (* /) < unary.
  ExprPtr expression() {
    // A fresh top-level expression (not one nested inside parentheses)
    // starts its own operator-chain count.
    if (nesting_ == 0) chained_ = 0;
    return conditional();
  }

  /// Throws once the expression outgrows kMaxExpressionDepth at the current
  /// token. Every parser recursion passes through unary(), which holds one
  /// nesting level while it runs; a chain `a + b + c` nests its left
  /// operands one level per operator without recursing (and `?:` nests its
  /// else branches), so chained operators count for the rest of the
  /// expression. Their sum bounds the tree height.
  void check_depth() const {
    if (nesting_ + chained_ > kMaxExpressionDepth) {
      fail("expression nests deeper than " + std::to_string(kMaxExpressionDepth) + " levels",
           peek().line);
    }
  }

  /// Counts one chained operator at the current token.
  void chain() {
    ++chained_;
    check_depth();
  }

  ExprPtr conditional() {
    ExprPtr condition = logical_or();
    if (!is_symbol("?")) return condition;
    chain();
    advance();
    ExprPtr then_branch = conditional();
    expect_symbol(":");
    ExprPtr else_branch = conditional();
    Expr node;
    node.kind = ExprKind::kConditional;
    node.a = std::move(condition);
    node.b = std::move(then_branch);
    node.c = std::move(else_branch);
    return make_expr(std::move(node));
  }

  ExprPtr logical_or() {
    ExprPtr lhs = logical_and();
    while (is_symbol("||")) {
      chain();
      advance();
      lhs = binary(Op::kOr, std::move(lhs), logical_and());
    }
    return lhs;
  }

  ExprPtr logical_and() {
    ExprPtr lhs = equality();
    while (is_symbol("&&")) {
      chain();
      advance();
      lhs = binary(Op::kAnd, std::move(lhs), equality());
    }
    return lhs;
  }

  ExprPtr equality() {
    ExprPtr lhs = relational();
    while (is_symbol("=") || is_symbol("!=")) {
      const Op op = is_symbol("=") ? Op::kEq : Op::kNeq;
      chain();
      advance();
      lhs = binary(op, std::move(lhs), relational());
    }
    return lhs;
  }

  ExprPtr relational() {
    ExprPtr lhs = additive();
    while (is_symbol("<") || is_symbol("<=") || is_symbol(">") || is_symbol(">=")) {
      Op op = Op::kLt;
      if (is_symbol("<=")) op = Op::kLe;
      if (is_symbol(">")) op = Op::kGt;
      if (is_symbol(">=")) op = Op::kGe;
      chain();
      advance();
      lhs = binary(op, std::move(lhs), additive());
    }
    return lhs;
  }

  ExprPtr additive() {
    ExprPtr lhs = multiplicative();
    while (is_symbol("+") || is_symbol("-")) {
      const Op op = is_symbol("+") ? Op::kAdd : Op::kSub;
      chain();
      advance();
      lhs = binary(op, std::move(lhs), multiplicative());
    }
    return lhs;
  }

  ExprPtr multiplicative() {
    ExprPtr lhs = unary();
    while (is_symbol("*") || is_symbol("/")) {
      const Op op = is_symbol("*") ? Op::kMul : Op::kDiv;
      chain();
      advance();
      lhs = binary(op, std::move(lhs), unary());
    }
    return lhs;
  }

  ExprPtr unary() {
    ++nesting_;
    check_depth();
    ExprPtr expr = unary_operand();
    --nesting_;
    return expr;
  }

  ExprPtr unary_operand() {
    if (is_symbol("!")) {
      advance();
      Expr node;
      node.kind = ExprKind::kUnary;
      node.op = Op::kNot;
      node.a = unary();
      return make_expr(std::move(node));
    }
    if (is_symbol("-")) {
      advance();
      Expr node;
      node.kind = ExprKind::kUnary;
      node.op = Op::kNegate;
      node.a = unary();
      return make_expr(std::move(node));
    }
    return primary();
  }

  ExprPtr primary() {
    if (is_symbol("(")) {
      advance();
      ExprPtr inner = expression();
      expect_symbol(")");
      return inner;
    }
    if (peek().kind == TokKind::kNumber) {
      Expr node;
      node.kind = ExprKind::kNumber;
      node.number = advance().number;
      return make_expr(std::move(node));
    }
    if (is_word("true") || is_word("false")) {
      Expr node;
      node.kind = ExprKind::kBool;
      node.boolean = advance().text == "true";
      return make_expr(std::move(node));
    }
    if (peek().kind == TokKind::kIdent) {
      Expr node;
      node.kind = ExprKind::kIdentifier;
      node.identifier = advance().text;
      return make_expr(std::move(node));
    }
    fail("expected an expression, found '" + peek().text + "'", peek().line);
  }

  ExprPtr binary(Op op, ExprPtr lhs, ExprPtr rhs) {
    Expr node;
    node.kind = ExprKind::kBinary;
    node.op = op;
    node.a = std::move(lhs);
    node.b = std::move(rhs);
    return make_expr(std::move(node));
  }

  std::vector<Tok> tokens_;
  std::size_t position_ = 0;
  /// unary() frames currently open (see check_depth()).
  std::size_t nesting_ = 0;
  /// Chained operators of the current top-level expression.
  std::size_t chained_ = 0;
};

}  // namespace

ModelSpec parse_spec(const std::string& text) { return Parser(lex(text)).parse_spec(); }

ExprPtr parse_expression(const std::string& text) {
  return Parser(lex(text)).parse_full_expression();
}

}  // namespace csrlmrm::lang
