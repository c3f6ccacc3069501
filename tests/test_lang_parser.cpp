// The specification language: lexer/parser and expression evaluation.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "lang/parser.hpp"

namespace csrlmrm::lang {
namespace {

/// Environment with a fixed set of bindings for expression tests.
class MapEnvironment final : public Environment {
 public:
  explicit MapEnvironment(std::map<std::string, Value> values)
      : values_(std::move(values)) {}
  Value lookup(const std::string& name) const override {
    const auto it = values_.find(name);
    if (it == values_.end()) throw SpecError("unknown identifier '" + name + "'");
    return it->second;
  }

 private:
  std::map<std::string, Value> values_;
};

TEST(LangExpr, ArithmeticPrecedence) {
  MapEnvironment env({});
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("1 + 2 * 3"), env), 7.0);
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("(1 + 2) * 3"), env), 9.0);
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("8 / 2 / 2"), env), 2.0);
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("-3 + 1"), env), -2.0);
}

TEST(LangExpr, BooleanConnectivesShortCircuit) {
  MapEnvironment env({});
  EXPECT_TRUE(evaluate_bool(parse_expression("true || (1 / 0 = 1)"), env));
  EXPECT_FALSE(evaluate_bool(parse_expression("false && (1 / 0 = 1)"), env));
}

TEST(LangExpr, ComparisonsAndEquality) {
  MapEnvironment env({{"x", Value::make_number(4)}});
  EXPECT_TRUE(evaluate_bool(parse_expression("x = 4"), env));
  EXPECT_TRUE(evaluate_bool(parse_expression("x != 5"), env));
  EXPECT_TRUE(evaluate_bool(parse_expression("x >= 4 && x < 5"), env));
  EXPECT_FALSE(evaluate_bool(parse_expression("!(x <= 4)"), env));
}

TEST(LangExpr, ConditionalOperator) {
  MapEnvironment env({{"jobs", Value::make_number(0)}});
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("jobs = 0 ? 2 : 0"), env), 2.0);
  MapEnvironment busy({{"jobs", Value::make_number(3)}});
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression("jobs = 0 ? 2 : 0"), busy), 0.0);
}

TEST(LangExpr, TypeErrorsAreReported) {
  MapEnvironment env({});
  EXPECT_THROW(evaluate(parse_expression("1 && 2"), env), SpecError);
  EXPECT_THROW(evaluate(parse_expression("true + 1"), env), SpecError);
  EXPECT_THROW(evaluate(parse_expression("!3"), env), SpecError);
  EXPECT_THROW(evaluate(parse_expression("1 / 0"), env), SpecError);
  EXPECT_THROW(evaluate_number(parse_expression("true"), env), SpecError);
  EXPECT_THROW(evaluate_bool(parse_expression("3"), env), SpecError);
}

TEST(LangExpr, UnknownIdentifierIsReported) {
  MapEnvironment env({});
  EXPECT_THROW(evaluate(parse_expression("ghost"), env), SpecError);
}

TEST(LangParser, ParsesFullSpecification) {
  const ModelSpec spec = parse_spec(R"(
    // an M/M/1/K queue
    const int K = 4;
    const double lambda = 0.8;
    module queue
      jobs : [0 .. K] init 0;
      [] jobs < K -> lambda : (jobs' = jobs + 1) impulse (jobs = 0 ? 2 : 0);
      [] jobs > 0 -> 1.0 : (jobs' = jobs - 1);
    endmodule
    rewards
      jobs = 0 : 1;
      jobs > 0 : 5;
    endrewards
    label "full" = jobs = K;
    label "empty" = jobs = 0;
  )");
  EXPECT_EQ(spec.module_name, "queue");
  ASSERT_EQ(spec.constants.size(), 2u);
  EXPECT_TRUE(spec.constants[0].is_integer);
  ASSERT_EQ(spec.variables.size(), 1u);
  EXPECT_EQ(spec.variables[0].name, "jobs");
  ASSERT_EQ(spec.commands.size(), 2u);
  EXPECT_TRUE(spec.commands[0].impulse != nullptr);
  EXPECT_TRUE(spec.commands[1].impulse == nullptr);
  EXPECT_EQ(spec.state_rewards.size(), 2u);
  ASSERT_EQ(spec.labels.size(), 2u);
  EXPECT_EQ(spec.labels[0].name, "full");
}

TEST(LangParser, MultiVariableUpdates) {
  const ModelSpec spec = parse_spec(R"(
    module pair
      x : [0 .. 1];
      y : [0 .. 1];
      [] x = 0 && y = 0 -> 1.0 : (x' = 1) & (y' = 1);
    endmodule
  )");
  ASSERT_EQ(spec.commands.size(), 1u);
  EXPECT_EQ(spec.commands[0].updates.size(), 2u);
}

TEST(LangParser, ReportsLineNumbers) {
  try {
    parse_spec("const int K = ;\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos) << error.what();
  }
}

TEST(LangParser, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_spec("module m endmodule"), SpecError);  // no variables
  EXPECT_THROW(parse_spec("module m x : [0 .. 1]; [] true -> 1 : (x' = 1)"), SpecError);
  EXPECT_THROW(parse_spec("label full = true;"), SpecError);  // unquoted label
  EXPECT_THROW(parse_spec("wibble"), SpecError);
  EXPECT_THROW(parse_expression("1 +"), SpecError);
  EXPECT_THROW(parse_expression("(1"), SpecError);
  EXPECT_THROW(parse_expression("1 2"), SpecError);
}

/// The SpecError message of parsing `text`, or "" when it parses.
std::string spec_error(const std::string& text) {
  try {
    parse_spec(text);
  } catch (const SpecError& error) {
    return error.what();
  }
  return "";
}

/// `depth` nested parentheses around 1.
std::string nested(std::size_t depth) {
  return std::string(depth, '(') + "1" + std::string(depth, ')');
}

TEST(LangParser, DeepParenthesesRaiseSpecErrorWithTheLine) {
  // 200 000 open parentheses used to overflow the recursive-descent stack.
  const std::string error =
      spec_error("// deep constant\nconst double c = " + nested(200000) + ";\n");
  EXPECT_NE(error.find("nests deeper than " + std::to_string(kMaxExpressionDepth)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("(line 2)"), std::string::npos) << error;
}

TEST(LangParser, DeepOperatorChainRaisesSpecError) {
  // A flat 300 000-term chain parses in a loop, but the left-deep tree it
  // builds is then walked (and destroyed) recursively.
  std::string chain = "1";
  for (int i = 1; i < 300000; ++i) chain += "+1";
  const std::string error = spec_error("const double c = " + chain + ";\n");
  EXPECT_NE(error.find("nests deeper than"), std::string::npos) << error;
  EXPECT_NE(error.find("(line 1)"), std::string::npos) << error;
  // The same for a right-nested ?: chain, which recurses in the parser.
  std::string conditional;
  for (int i = 0; i < 300000; ++i) conditional += "true ? 1 : ";
  EXPECT_NE(spec_error("const double c = " + conditional + "1;\n").find("nests deeper than"),
            std::string::npos);
}

TEST(LangParser, DeepExpressionAtTheCapParsesAndEvaluates) {
  // Each parenthesis opens one level on top of the outermost operand's.
  MapEnvironment env({});
  EXPECT_DOUBLE_EQ(
      evaluate_number(parse_expression(nested(kMaxExpressionDepth - 1)), env), 1.0);
  EXPECT_THROW(parse_expression(nested(kMaxExpressionDepth)), SpecError);
  std::string chain = "1";
  for (std::size_t i = 1; i < kMaxExpressionDepth; ++i) chain += "+1";
  EXPECT_DOUBLE_EQ(evaluate_number(parse_expression(chain), env),
                   static_cast<double>(kMaxExpressionDepth));
}

TEST(LangParser, DeepChainCountRestartsPerExpression) {
  // The cap bounds one expression's tree, not the whole file: many short
  // chains side by side stay legal.
  std::string text;
  for (std::size_t i = 0; i < 2 * kMaxExpressionDepth; ++i) {
    text += "const int c" + std::to_string(i) + " = 1 + 1 + 1;\n";
  }
  text += "module m\n  x : [0 .. 1];\n  [] x < 1 -> 1 : (x' = x + 1);\nendmodule\n";
  EXPECT_EQ(spec_error(text), "");
}

TEST(LangParser, CommentsAndWhitespaceAreIgnored)
{
  const ModelSpec spec = parse_spec(
      "// leading comment\nmodule m\n  x : [0 .. 2]; // trailing\n  [] x < 2 -> 1.0 : "
      "(x' = x + 1);\nendmodule\n");
  EXPECT_EQ(spec.variables.size(), 1u);
}

}  // namespace
}  // namespace csrlmrm::lang
