#include "logic/parser.hpp"

#include <limits>
#include <string>

#include "core/approx.hpp"

namespace csrlmrm::logic {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  FormulaPtr parse() {
    FormulaPtr formula = parse_or();
    expect(TokenKind::kEnd, "end of input");
    return formula;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool match(TokenKind kind) {
    if (peek().kind != kind) return false;
    advance();
    return true;
  }

  const Token& expect(TokenKind kind, const char* what) {
    if (peek().kind != kind) {
      throw ParseError(std::string("expected ") + what + ", found '" + peek().text + "'",
                       peek().column);
    }
    return advance();
  }

  bool peek_is_word(const char* word, std::size_t ahead = 0) const {
    return peek(ahead).kind == TokenKind::kIdentifier && peek(ahead).text == word;
  }

  /// Throws once the formula outgrows kMaxFormulaDepth at the current token.
  /// Every parser recursion passes through parse_unary, which holds one
  /// nesting level while it runs; a chain `a || b || c` nests its left
  /// operands one level per connective without recursing, so connectives
  /// count for the rest of the parse. Their sum bounds the AST height.
  void check_depth() const {
    if (nesting_ + connectives_ > kMaxFormulaDepth) {
      throw ParseError("formula nests deeper than " + std::to_string(kMaxFormulaDepth) +
                           " levels",
                       peek().column);
    }
  }

  FormulaPtr parse_or() {
    FormulaPtr lhs = parse_and();
    while (peek().kind == TokenKind::kOrOr) {
      ++connectives_;
      check_depth();
      advance();
      lhs = make_or(std::move(lhs), parse_and());
    }
    return lhs;
  }

  FormulaPtr parse_and() {
    FormulaPtr lhs = parse_unary();
    while (peek().kind == TokenKind::kAndAnd) {
      ++connectives_;
      check_depth();
      advance();
      lhs = make_and(std::move(lhs), parse_unary());
    }
    return lhs;
  }

  FormulaPtr parse_unary() {
    ++nesting_;
    check_depth();
    FormulaPtr formula = match(TokenKind::kBang) ? make_not(parse_unary()) : parse_primary();
    --nesting_;
    return formula;
  }

  FormulaPtr parse_primary() {
    if (match(TokenKind::kLParen)) {
      FormulaPtr inner = parse_or();
      expect(TokenKind::kRParen, "')'");
      return inner;
    }
    const Token& token = peek();
    if (token.kind != TokenKind::kIdentifier) {
      throw ParseError("expected a state formula, found '" + token.text + "'", token.column);
    }
    if (token.text == "TT" || token.text == "tt") {
      advance();
      return make_true();
    }
    if (token.text == "FF" || token.text == "ff") {
      advance();
      return make_false();
    }
    // S and P act as operators only when immediately followed by '('; this
    // keeps propositions like "Sup" or a bare "P" usable as atoms.
    if (token.text == "S" && peek(1).kind == TokenKind::kLParen) {
      advance();
      auto [op, bound] = parse_probability_bound();
      return make_steady(op, bound, parse_unary());
    }
    if (token.text == "P" && peek(1).kind == TokenKind::kLParen) {
      advance();
      auto [op, bound] = parse_probability_bound();
      expect(TokenKind::kLBracket, "'[' opening a path formula");
      FormulaPtr formula = parse_path(op, bound);
      expect(TokenKind::kRBracket, "']' closing the path formula");
      return formula;
    }
    if (token.text == "R" && peek(1).kind == TokenKind::kLParen) {
      advance();
      auto [op, bound] = parse_reward_threshold();
      expect(TokenKind::kLBracket, "'[' opening a reward query");
      FormulaPtr formula = parse_reward_query(op, bound);
      expect(TokenKind::kRBracket, "']' closing the reward query");
      return formula;
    }
    advance();
    return make_atomic(token.text);
  }

  std::pair<Comparison, double> parse_probability_bound() {
    expect(TokenKind::kLParen, "'('");
    Comparison op;
    switch (peek().kind) {
      case TokenKind::kLess:
        op = Comparison::kLess;
        break;
      case TokenKind::kLessEqual:
        op = Comparison::kLessEqual;
        break;
      case TokenKind::kGreater:
        op = Comparison::kGreater;
        break;
      case TokenKind::kGreaterEqual:
        op = Comparison::kGreaterEqual;
        break;
      default:
        throw ParseError("expected a comparison operator (<, <=, >, >=), found '" +
                             peek().text + "'",
                         peek().column);
    }
    advance();
    const Token& number = expect(TokenKind::kNumber, "a probability");
    if (number.value < 0.0 || number.value > 1.0) {
      throw ParseError("probability bound must be in [0,1]", number.column);
    }
    expect(TokenKind::kRParen, "')'");
    return {op, number.value};
  }

  /// Like parse_probability_bound but the threshold is any non-negative
  /// real (expected rewards are unbounded above).
  std::pair<Comparison, double> parse_reward_threshold() {
    expect(TokenKind::kLParen, "'('");
    Comparison op;
    switch (peek().kind) {
      case TokenKind::kLess:
        op = Comparison::kLess;
        break;
      case TokenKind::kLessEqual:
        op = Comparison::kLessEqual;
        break;
      case TokenKind::kGreater:
        op = Comparison::kGreater;
        break;
      case TokenKind::kGreaterEqual:
        op = Comparison::kGreaterEqual;
        break;
      default:
        throw ParseError("expected a comparison operator (<, <=, >, >=), found '" +
                             peek().text + "'",
                         peek().column);
    }
    advance();
    const Token& number = expect(TokenKind::kNumber, "a reward threshold");
    expect(TokenKind::kRParen, "')'");
    return {op, number.value};
  }

  /// reward_query := 'C' interval? | 'F' state | 'S'.
  FormulaPtr parse_reward_query(Comparison op, double bound) {
    if (peek_is_word("C")) {
      advance();
      Interval horizon = full_interval();
      if (peek().kind == TokenKind::kLBracket) horizon = parse_interval();
      if (!core::exactly_zero(horizon.lower()) || horizon.is_upper_unbounded()) {
        throw ParseError("cumulative reward horizons must have the form [0,t]",
                         peek().column);
      }
      return make_reward_cumulative(op, bound, horizon.upper());
    }
    if (peek_is_word("F")) {
      advance();
      return make_reward_reachability(op, bound, parse_or());
    }
    if (peek_is_word("S")) {
      advance();
      return make_reward_long_run(op, bound);
    }
    throw ParseError("expected a reward query (C[0,t], F formula, or S), found '" +
                         peek().text + "'",
                     peek().column);
  }

  /// path := 'X' bounds state | state 'U' bounds state. A leading word "X"
  /// denotes the Next operator unless it is immediately followed by the word
  /// "U" (then it is an atomic proposition on the left of an until).
  FormulaPtr parse_path(Comparison op, double bound) {
    if (peek_is_word("X") && !peek_is_word("U", 1)) {
      advance();
      const auto [time, reward] = parse_bounds();
      return make_prob_next(op, bound, time, reward, parse_or());
    }
    FormulaPtr lhs = parse_or();
    if (!peek_is_word("U")) {
      throw ParseError("expected 'U' in path formula, found '" + peek().text + "'",
                       peek().column);
    }
    advance();
    const auto [time, reward] = parse_bounds();
    FormulaPtr rhs = parse_or();
    return make_prob_until(op, bound, time, reward, std::move(lhs), std::move(rhs));
  }

  /// bounds := interval? interval? — first is the time bound I, second the
  /// reward bound J; both default to [0,~].
  std::pair<Interval, Interval> parse_bounds() {
    Interval time = full_interval();
    Interval reward = full_interval();
    if (peek().kind == TokenKind::kLBracket) {
      time = parse_interval();
      if (peek().kind == TokenKind::kLBracket) reward = parse_interval();
    }
    return {time, reward};
  }

  Interval parse_interval() {
    expect(TokenKind::kLBracket, "'['");
    const double lower = parse_number_or_infinity();
    expect(TokenKind::kComma, "','");
    const double upper = parse_number_or_infinity();
    const std::size_t column = peek().column;
    expect(TokenKind::kRBracket, "']'");
    try {
      return Interval(lower, upper);
    } catch (const std::invalid_argument& error) {
      throw ParseError(error.what(), column);
    }
  }

  double parse_number_or_infinity() {
    if (match(TokenKind::kTilde)) return std::numeric_limits<double>::infinity();
    return expect(TokenKind::kNumber, "a number or '~'").value;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t nesting_ = 0;
  std::size_t connectives_ = 0;
};

}  // namespace

FormulaPtr parse_formula(const std::string& input) {
  return Parser(tokenize(input)).parse();
}

}  // namespace csrlmrm::logic
