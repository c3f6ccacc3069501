// State-space construction from specifications, cross-checked against the
// hand-built C++ models.
#include <gtest/gtest.h>

#include "checker/sat.hpp"
#include "lang/builder.hpp"
#include "logic/parser.hpp"
#include "models/mm1k.hpp"
#include "models/tmr.hpp"
#include "oracle/lumping.hpp"
#include "oracle/spec_states.hpp"

namespace csrlmrm::lang {
namespace {

constexpr const char* kQueueSpec = R"(
  const int K = 4;
  const double lambda = 0.8;
  const double mu = 1.0;
  module queue
    jobs : [0 .. K] init 0;
    [] jobs < K -> lambda : (jobs' = jobs + 1) impulse (jobs = 0 ? 2 : 0);
    [] jobs > 0 -> mu : (jobs' = jobs - 1);
  endmodule
  rewards
    jobs = 0 : 1;
    jobs > 0 : 5;
  endrewards
  label "full" = jobs = K;
  label "empty" = jobs = 0;
  label "busy" = jobs > 0;
)";

TEST(LangBuilder, QueueSpecMatchesHandBuiltModel) {
  const BuiltModel built = build_model_from_text(kQueueSpec);
  const core::Mrm reference = models::make_mm1k({4, 0.8, 1.0, 1.0, 5.0, 2.0});
  ASSERT_TRUE(built.model.has_value());
  const core::Mrm& model = *built.model;
  ASSERT_EQ(model.num_states(), reference.num_states());
  // BFS order from jobs=0 coincides with the jobs count here.
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(model.state_reward(s), reference.state_reward(s)) << "state " << s;
    for (core::StateIndex s2 = 0; s2 < model.num_states(); ++s2) {
      EXPECT_DOUBLE_EQ(model.rates().rate(s, s2), reference.rates().rate(s, s2))
          << s << "->" << s2;
      EXPECT_DOUBLE_EQ(model.impulse_reward(s, s2), reference.impulse_reward(s, s2))
          << s << "->" << s2;
    }
  }
  EXPECT_TRUE(model.labels().has(0, "empty"));
  EXPECT_TRUE(model.labels().has(4, "full"));
  EXPECT_TRUE(model.labels().has(2, "busy"));
}

TEST(LangBuilder, ValuationBookkeeping) {
  const BuiltModel built = build_model_from_text(kQueueSpec);
  EXPECT_EQ(built.variable_names, std::vector<std::string>{"jobs"});
  EXPECT_EQ(built.initial_state, 0u);
  EXPECT_EQ(state_of(built, {3}), 3u);
  EXPECT_EQ(state_of(built, {99}), built.valuations.size());  // unreachable
}

TEST(LangBuilder, TmrSpecMatchesCounterModel) {
  // The chapter-5 TMR system written in the language (variable rates).
  const BuiltModel built = build_model_from_text(R"(
    const int N = 3;
    module tmr
      failed : [0 .. N] init 0;
      voter : [0 .. 1] init 0;
      [] voter = 0 && failed < N -> (N - failed) * 0.0004 : (failed' = failed + 1);
      [] voter = 0 && failed > 0 -> 0.05 : (failed' = failed - 1) impulse 2.5;
      [] voter = 0 -> 0.0001 : (voter' = 1);
      [] voter = 1 -> 0.06 : (voter' = 0) & (failed' = 0) impulse 5;
    endmodule
    rewards
      voter = 0 : 8 + 2 * failed;
      voter = 1 : 16;
    endrewards
    label "allUp" = failed = 0 && voter = 0;
    label "Sup" = voter = 0 && N - failed >= 2;
    label "failed" = voter = 1 || N - failed < 2;
  )");
  models::TmrConfig config;
  config.variable_failure_rate = true;
  const core::Mrm reference = models::make_tmr(config);
  const core::Mrm& model = *built.model;
  // The spec keeps one voter-down state per failed count (8 states); they
  // are interchangeable, so lumping recovers the 5-state counter model.
  EXPECT_EQ(model.num_states(), 8u);
  EXPECT_EQ(core::lump(model).num_states(), reference.num_states());

  // Compare through the checker (state orders differ).
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-11;
  checker::ModelChecker spec_checker(model, options);
  checker::ModelChecker reference_checker(reference, options);
  const auto formula = logic::parse_formula("P(>0.1)[Sup U[0,50][0,3000] failed]");
  const auto spec_values = spec_checker.path_probabilities(formula);
  const auto reference_values = reference_checker.path_probabilities(formula);
  EXPECT_NEAR(spec_values[state_of(built, {0, 0})].probability,
              reference_values[0].probability, 1e-12);
}

TEST(LangBuilder, VoterDownStatesAreDistinguishedByMask) {
  // Unlike the counter abstraction, the spec above keeps (failed, voter=1)
  // states separate per failed count.
  const BuiltModel built = build_model_from_text(R"(
    module m
      x : [0 .. 2];
      [] x < 2 -> 1.0 : (x' = x + 1);
      [] x = 2 -> 1.0 : (x' = 0);
    endmodule
  )");
  EXPECT_EQ(built.model->num_states(), 3u);
}

TEST(LangBuilder, UnreachableValuationsAreNotBuilt) {
  const BuiltModel built = build_model_from_text(R"(
    module m
      x : [0 .. 100] init 5;
      [] x > 4 && x < 7 -> 1.0 : (x' = x + 1);
    endmodule
  )");
  // Only 5, 6, 7 are reachable.
  EXPECT_EQ(built.model->num_states(), 3u);
}

TEST(LangBuilder, ParallelCommandsAggregateRates) {
  const BuiltModel built = build_model_from_text(R"(
    module m
      x : [0 .. 1];
      [] x = 0 -> 0.5 : (x' = 1);
      [] x = 0 -> 0.25 : (x' = 1);
    endmodule
  )");
  EXPECT_DOUBLE_EQ(built.model->rates().rate(0, 1), 0.75);
}

TEST(LangBuilder, ErrorsAreDiagnosed) {
  // Update escapes the declared range.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 1];
      [] true -> 1.0 : (x' = x + 1);
    endmodule
  )"),
               SpecError);
  // Impulse on a self-loop.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 1];
      [] true -> 1.0 : (x' = x) impulse 1;
    endmodule
  )"),
               SpecError);
  // Conflicting impulses on the same transition.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 1];
      [] x = 0 -> 1.0 : (x' = 1) impulse 1;
      [] x = 0 -> 2.0 : (x' = 1) impulse 2;
    endmodule
  )"),
               SpecError);
  // Unknown identifier in a guard.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 1];
      [] ghost = 0 -> 1.0 : (x' = 1);
    endmodule
  )"),
               SpecError);
  // Same variable assigned twice in one command.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 3];
      [] x = 0 -> 1.0 : (x' = 1) & (x' = 2);
    endmodule
  )"),
               SpecError);
  // Non-integral update.
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 3];
      [] x = 0 -> 1.0 : (x' = 0.5);
    endmodule
  )"),
               SpecError);
}

TEST(LangBuilder, StateSpaceLimitIsEnforced) {
  BuildOptions options;
  options.max_states = 10;
  EXPECT_THROW(build_model_from_text(R"(
    module m
      x : [0 .. 1000];
      [] x < 1000 -> 1.0 : (x' = x + 1);
    endmodule
  )",
                                     options),
               SpecError);
}

TEST(LangBuilder, ZeroRateCommandsAreSkipped) {
  const BuiltModel built = build_model_from_text(R"(
    const double off = 0;
    module m
      x : [0 .. 1];
      [] x = 0 -> off : (x' = 1);
    endmodule
  )");
  EXPECT_EQ(built.model->num_states(), 1u);  // target never explored
  EXPECT_TRUE(built.model->rates().is_absorbing(0));
}

}  // namespace
}  // namespace csrlmrm::lang
