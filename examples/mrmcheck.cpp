// mrmcheck — the command-line model checker of the thesis appendix:
//
//   mrmcheck <model.tra> <model.lab> <model.rewr> [model.rewi]
//            [u=<w> | d=<step>] [--threads N] [NP] "<CSRL formula>"
//   mrmcheck <model.spec> [u=<w> | d=<step>] [--threads N] [NP] "<CSRL formula>"
//
// Reads an MRM from the four file formats (or builds it from a
// guarded-command .spec file, see src/lang/spec.hpp), checks the formula,
// and prints the satisfying states (and, unless NP is given, the computed
// per-state probabilities for the outermost S/P/R operator). Defaults to
// uniformization with w = 1e-8, exactly like the original tool.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "checker/options.hpp"
#include "core/transform.hpp"
#include "io/model_files.hpp"
#include "models/generator.hpp"
#include "lang/builder.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"
#include "plan/printer.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mrmcheck <model.tra> <model.lab> <model.rewr> [model.rewi]\n"
               "                [u=<w> | d=<step>] [NP] \"<CSRL formula>\"\n"
               "       mrmcheck <model.spec> [u=<w> | d=<step>] [NP] \"<CSRL formula>\"\n"
               "       mrmcheck --model-gen=<family:k=v,...> [options] \"<CSRL formula>\"\n"
               "\n"
               "  --model-gen=<spec>  build the model from a streamed generator instead\n"
               "            of model files (must be the first argument). Families:\n"
               "            grid  (mesh network:   width, height, hop, drift, energy, power)\n"
               "            crowd (epidemic:       population, contact, recovery,\n"
               "                                   treatment, outbreak)\n"
               "            virus (host infection: hosts, infect, recover, damage)\n"
               "            e.g. --model-gen=grid:width=256,height=256\n"
               "  --steady-detect[=eps]  let uniformization series stop early once the\n"
               "            iterate is steady within eps (default 1e-12); the cut's\n"
               "            error is accounted into the reported value intervals\n"
               "  u=<w>     until formulas by uniformization, truncation probability w\n"
               "            (default: u=1e-8). Reward-bounded queries run the\n"
               "            signature-class DP engine; one that is provably over the\n"
               "            node budget runs discretization instead (recorded in the\n"
               "            engine.auto_choice.* stats counters)\n"
               "  d=<step>  until formulas by discretization with the given step\n"
               "  --threads N  worker threads for the numeric engines and the\n"
               "            per-state fan-out (default: CSRLMRM_THREADS env var,\n"
               "            else hardware concurrency; 1 = serial)\n"
               "  --stats[=file.json]  collect engine statistics (solver iterations,\n"
               "            Poisson windows, path counts, per-operator timings) and\n"
               "            write them as JSON to the file (or stdout). The\n"
               "            CSRLMRM_STATS env var enables collection as well.\n"
               "  --strict  exit with status 3 when any state's verdict is UNKNOWN\n"
               "            (its value interval straddles a threshold); the default\n"
               "            only warns and lists the offending intervals\n"
               "  --fallback=<policy>  what to do when the uniformization engine\n"
               "            exhausts its node budget: 'discretize' (default: redo\n"
               "            the query's start states with the discretization engine)\n"
               "            or 'throw' (fail)\n"
               "  --max-nodes=N  node budget for the uniformization engine (frontier\n"
               "            classes processed, default 500000000)\n"
               "  --formulas=<file>  check a batch of formulas (one per line; blank\n"
               "            lines and '#' comments skipped) through one compiled plan\n"
               "            that deduplicates shared subformulas and solves, and\n"
               "            builds each absorbing transform once; replaces the\n"
               "            positional formula argument. A malformed or unsupported\n"
               "            formula fails alone (its error printed in its slot), the\n"
               "            rest of the batch still runs, and the exit status is 4\n"
               "  --explain  compile the formula (or --formulas batch) into a plan,\n"
               "            print it — ops, shared solves, each until's class — and exit\n"
               "            without checking anything\n"
               "  NP        do not print per-state probabilities\n"
               "\n"
               "formula syntax (appendix of the thesis, plus the R extension):\n"
               "  TT FF ! && || S(op p) f P(op p)[f U[t1,t2][r1,r2] f]\n"
               "  P(op p)[X[t1,t2][r1,r2] f] R(op x)[C[0,t]] R(op x)[F f] R(op x)[S]\n"
               "  with op in < <= > >=, ~ = infinity\n");
}

bool ends_with(const std::string& text, const char* suffix) {
  const std::string s(suffix);
  return text.size() >= s.size() && text.compare(text.size() - s.size(), s.size(), s) == 0;
}

/// Parses the --threads value; returns 0 (and prints a diagnostic) when it
/// is not a positive integer, so a typo fails with a named error instead of
/// a bare std::stoi exception message.
unsigned parse_thread_count(const std::string& text) {
  try {
    std::size_t consumed = 0;
    const int threads = std::stoi(text, &consumed);
    if (consumed != text.size() || threads < 1) throw std::invalid_argument(text);
    return static_cast<unsigned>(threads);
  } catch (const std::exception&) {
    std::fprintf(stderr, "mrmcheck: --threads expects a positive integer, got '%s'\n",
                 text.c_str());
    return 0;
  }
}

/// Parses the value of u= / d= strictly: the whole token must be a finite,
/// positive double. Returns false (with a diagnostic) otherwise, so
/// `u=1e-8x` or `d=` fail loudly instead of being half-parsed by stod.
bool parse_positive_double(const std::string& text, const char* flag, double& out) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !(value > 0.0) || !std::isfinite(value)) {
      throw std::invalid_argument(text);
    }
    out = value;
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "mrmcheck: %s expects a positive number, got '%s'\n", flag,
                 text.c_str());
    return false;
  }
}

/// Reads a --formulas file: one formula per line, blank lines and lines
/// starting with '#' skipped.
std::vector<std::string> load_formula_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open formulas file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    lines.push_back(line.substr(start, end - start + 1));
  }
  if (lines.empty()) {
    throw std::runtime_error("formulas file '" + path + "' contains no formulas");
  }
  return lines;
}

/// Prints one formula's results below its `formula:` line (per-state values,
/// satisfying states, UNKNOWN warnings); the single-formula and the batch
/// output share this format. Returns whether any state's verdict is UNKNOWN.
bool report_plan_formula(const csrlmrm::core::Mrm& model,
                         const csrlmrm::logic::FormulaPtr& formula,
                         const csrlmrm::plan::FormulaResult& result,
                         bool print_probabilities) {
  using namespace csrlmrm;
  if (print_probabilities && result.has_probabilities) {
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      std::printf("  P(state %zu) = %.17g", s + 1, result.probabilities[s].probability);
      if (result.probabilities[s].bound.width() > 0.0) {
        std::printf("  (in %s)", result.probabilities[s].bound.to_string().c_str());
      }
      std::printf("\n");
    }
  }
  if (print_probabilities && result.has_values) {
    const char* name = formula->kind == logic::FormulaKind::kSteady ? "pi" : "E";
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      std::printf("  %s(state %zu) = %.17g\n", name, s + 1, result.values[s]);
    }
  }
  std::printf("satisfying states (1-based):");
  bool any = false;
  bool any_unknown = false;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (result.verdicts[s] == checker::Verdict::kSat) {
      std::printf(" %zu", s + 1);
      any = true;
    } else if (result.verdicts[s] == checker::Verdict::kUnknown) {
      any_unknown = true;
    }
  }
  std::printf("%s\n", any ? "" : " (none)");
  if (any_unknown) {
    std::printf("UNKNOWN states (1-based):");
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (result.verdicts[s] == checker::Verdict::kUnknown) std::printf(" %zu", s + 1);
    }
    std::printf("\n");
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (result.verdicts[s] != checker::Verdict::kUnknown) continue;
      if (result.has_bounds) {
        std::fprintf(stderr,
                     "mrmcheck: warning: state %zu is UNKNOWN — value interval %s straddles "
                     "the threshold; tighten w/epsilon/d or use --strict to fail\n",
                     s + 1, result.bounds[s].to_string().c_str());
      } else {
        std::fprintf(stderr,
                     "mrmcheck: warning: state %zu is UNKNOWN — a sub-formula's value "
                     "interval straddles its threshold at the configured accuracy\n",
                     s + 1);
      }
    }
  }
  return any_unknown;
}

/// The --stats report: the registry as JSON on stdout, or written to
/// `stats_path` when one was given. Returns false (after the diagnostic)
/// when the file cannot be written.
bool write_stats(const std::string& stats_path) {
  const std::string json = csrlmrm::obs::StatsRegistry::global().to_json();
  if (stats_path.empty()) {
    std::printf("stats:\n%s", json.c_str());
    return true;
  }
  std::ofstream out(stats_path);
  out << json;
  if (!out) {
    std::fprintf(stderr, "mrmcheck: failed writing stats file '%s'\n", stats_path.c_str());
    return false;
  }
  std::printf("stats: written to %s\n", stats_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrlmrm;
  if (argc < 3) {
    usage();
    return 2;
  }

  try {
    int arg = 1;
    std::string model_gen;
    if (std::string(argv[1]).rfind("--model-gen=", 0) == 0) {
      model_gen = std::string(argv[1]).substr(12);
      if (model_gen.empty()) {
        std::fprintf(stderr, "mrmcheck: --model-gen= expects family:key=value,...\n");
        return 2;
      }
      ++arg;
    }
    const bool from_spec = model_gen.empty() && ends_with(argv[1], ".spec");
    std::string tra;
    std::string lab;
    std::string rewr;
    std::string rewi;
    std::string spec_path;
    if (!model_gen.empty()) {
      // the generator spec replaces every positional model argument
    } else if (from_spec) {
      spec_path = argv[arg++];
    } else {
      if (argc < 5) {
        usage();
        return 2;
      }
      tra = argv[arg++];
      lab = argv[arg++];
      rewr = argv[arg++];
      if (arg < argc && std::strstr(argv[arg], ".rewi") != nullptr) rewi = argv[arg++];
    }

    checker::CheckerOptions options;
    bool print_probabilities = true;
    bool strict = false;
    bool explain = false;
    bool stats_requested = obs::stats_enabled();  // CSRLMRM_STATS env var
    std::string stats_path;
    std::string formulas_path;
    bool have_formula = false;
    std::string formula_text;
    for (; arg < argc; ++arg) {
      const std::string token = argv[arg];
      if (token.rfind("u=", 0) == 0) {
        options.until_method = checker::UntilMethod::kUniformization;
        if (!parse_positive_double(token.substr(2), "u=",
                                   options.uniformization.truncation_probability)) {
          return 2;
        }
      } else if (token.rfind("d=", 0) == 0) {
        options.until_method = checker::UntilMethod::kDiscretization;
        if (!parse_positive_double(token.substr(2), "d=", options.discretization.step)) {
          return 2;
        }
      } else if (token == "--threads" || token.rfind("--threads=", 0) == 0) {
        std::string value;
        if (token == "--threads") {
          if (arg + 1 >= argc) {
            usage();
            return 2;
          }
          value = argv[++arg];
        } else {
          value = token.substr(10);
        }
        options.threads = parse_thread_count(value);
        if (options.threads == 0) return 2;
        parallel::set_default_thread_count(options.threads);
      } else if (token == "--stats" || token.rfind("--stats=", 0) == 0) {
        stats_requested = true;
        if (token.rfind("--stats=", 0) == 0) {
          stats_path = token.substr(8);
          if (stats_path.empty()) {
            std::fprintf(stderr, "mrmcheck: --stats= expects a file path\n");
            return 2;
          }
        }
      } else if (token == "--steady-detect" || token.rfind("--steady-detect=", 0) == 0) {
        options.transient.detect_steady_state = true;
        if (token.rfind("--steady-detect=", 0) == 0 &&
            !parse_positive_double(token.substr(16), "--steady-detect=",
                                   options.transient.steady_epsilon)) {
          return 2;
        }
      } else if (token == "--strict") {
        strict = true;
      } else if (token == "--explain") {
        explain = true;
      } else if (token.rfind("--formulas=", 0) == 0) {
        formulas_path = token.substr(11);
        if (formulas_path.empty()) {
          std::fprintf(stderr, "mrmcheck: --formulas= expects a file path\n");
          return 2;
        }
      } else if (token.rfind("--fallback=", 0) == 0) {
        const std::string policy = token.substr(11);
        if (policy == "throw") {
          options.on_budget_exhausted = checker::BudgetPolicy::kThrow;
        } else if (policy == "discretize") {
          options.on_budget_exhausted = checker::BudgetPolicy::kFallbackToDiscretization;
        } else {
          std::fprintf(stderr,
                       "mrmcheck: --fallback= expects 'throw' or 'discretize', got '%s'\n",
                       policy.c_str());
          return 2;
        }
      } else if (token.rfind("--max-nodes=", 0) == 0) {
        const std::string value = token.substr(12);
        try {
          // Digits only: stoull would wrap "-5" to 2^64 - 5.
          if (value.find_first_not_of("0123456789") != std::string::npos) {
            throw std::invalid_argument(value);
          }
          const unsigned long long nodes = std::stoull(value);
          if (nodes == 0) throw std::invalid_argument(value);
          options.uniformization.max_nodes = static_cast<std::size_t>(nodes);
        } catch (const std::exception&) {
          std::fprintf(stderr, "mrmcheck: --max-nodes= expects a positive integer, got '%s'\n",
                       value.c_str());
          return 2;
        }
      } else if (token.rfind("--", 0) == 0) {
        std::fprintf(stderr, "mrmcheck: unknown option '%s'\n", token.c_str());
        usage();
        return 2;
      } else if (token == "NP") {
        print_probabilities = false;
      } else if (!have_formula) {
        formula_text = token;
        have_formula = true;
      } else {
        std::fprintf(stderr, "mrmcheck: unexpected argument '%s' (formula already given as '%s')\n",
                     token.c_str(), formula_text.c_str());
        usage();
        return 2;
      }
    }
    if (formulas_path.empty() ? (!have_formula || formula_text.empty()) : have_formula) {
      if (!formulas_path.empty()) {
        std::fprintf(stderr,
                     "mrmcheck: --formulas=%s replaces the positional formula argument\n",
                     formulas_path.c_str());
      }
      usage();
      return 2;
    }

    if (stats_requested) {
      obs::set_stats_enabled(true);
      if (!stats_path.empty()) {
        // Fail before any model checking runs: a long run that then cannot
        // record its stats is the worst outcome.
        std::ofstream probe(stats_path);
        if (!probe) {
          std::fprintf(stderr, "mrmcheck: cannot write stats file '%s'\n", stats_path.c_str());
          return 2;
        }
      }
    }

    const core::Mrm model =
        !model_gen.empty() ? models::make_generated_mrm(model_gen)
        : from_spec        ? std::move(*lang::build_model_from_file(spec_path).model)
                           : io::load_mrm(tra, lab, rewr, rewi);
    std::printf("model: %zu states, %zu transitions, impulse rewards: %s\n",
                model.num_states(), model.rates().matrix().non_zeros(),
                model.has_impulse_rewards() ? "yes" : "no");

    // Every plan this run executes draws its absorbing transforms from one
    // cache bound to the model.
    core::TransformCache transforms(model);

    if (!formulas_path.empty() || explain) {
      // Batch / explain mode: compile the whole batch into one plan so
      // structurally shared subformulas and solves are each evaluated once
      // (see src/plan/).
      //
      // Per-formula error isolation: a malformed (or unsupported) formula
      // fails alone — its error is reported in its batch slot, every other
      // formula still runs, and the process exits 4 instead of aborting the
      // whole batch on the first bad line.
      const std::vector<std::string> texts =
          formulas_path.empty() ? std::vector<std::string>{formula_text}
                                : load_formula_lines(formulas_path);
      std::vector<logic::FormulaPtr> formulas(texts.size());  // null: parse error
      std::vector<std::string> parse_errors(texts.size());
      std::vector<logic::FormulaPtr> good;
      for (std::size_t i = 0; i < texts.size(); ++i) {
        try {
          formulas[i] = logic::parse_formula(texts[i]);
          good.push_back(formulas[i]);
        } catch (const std::exception& error) {
          parse_errors[i] = error.what();
        }
      }

      if (explain) {
        for (std::size_t i = 0; i < texts.size(); ++i) {
          if (!formulas[i]) {
            std::fprintf(stderr, "mrmcheck: formula %zu '%s': %s\n", i + 1,
                         texts[i].c_str(), parse_errors[i].c_str());
          }
        }
        if (!good.empty()) {
          const plan::Plan compiled = plan::compile(model, good, options);
          std::printf("%s", plan::print_plan(compiled).c_str());
        }
        return good.size() == texts.size() ? 0 : 4;
      }

      // Execute the parsed formulas as one shared plan. A formula that fails
      // at solve time (an unsupported bound shape, say) fails alone, in its
      // own result (see src/plan/executor.hpp).
      plan::PlanResult results;
      if (!good.empty()) {
        results = plan::execute(plan::compile(model, good, options), model, transforms);
      }
      bool batch_unknown = false;
      bool any_failed = false;
      std::size_t next = 0;  // results.formulas follows `good`
      for (std::size_t i = 0; i < texts.size(); ++i) {
        std::printf("[%zu/%zu] ", i + 1, texts.size());
        const plan::FormulaResult* result = formulas[i] ? &results.formulas[next++] : nullptr;
        if (result != nullptr && !result->error) {
          std::printf("formula: %s\n", logic::to_string(formulas[i]).c_str());
          const bool unknown =
              report_plan_formula(model, formulas[i], *result, print_probabilities);
          batch_unknown = batch_unknown || unknown;
        } else {
          const std::string message =
              result != nullptr ? plan::failure_message(result->error) : parse_errors[i];
          std::printf("formula: %s\n  error: %s\n", texts[i].c_str(), message.c_str());
          std::fprintf(stderr, "mrmcheck: formula %zu '%s': %s\n", i + 1, texts[i].c_str(),
                       message.c_str());
          any_failed = true;
        }
      }
      if (stats_requested && !write_stats(stats_path)) return 1;
      if (strict && batch_unknown) {
        std::fprintf(stderr, "mrmcheck: --strict: UNKNOWN verdicts present\n");
        if (!any_failed) return 3;
      }
      if (any_failed) {
        std::fprintf(stderr, "mrmcheck: batch completed with per-formula failures\n");
        return 4;
      }
      return 0;
    }

    const logic::FormulaPtr formula = logic::parse_formula(formula_text);
    std::printf("formula: %s\n", logic::to_string(formula).c_str());

    // The formula line comes first, so a check that fails still names it.
    const plan::PlanResult checked =
        plan::execute(plan::compile(model, {formula}, options), model, transforms);
    const plan::FormulaResult& result = checked.formulas.front();
    if (result.error) std::rethrow_exception(result.error);
    const bool any_unknown = report_plan_formula(model, formula, result, print_probabilities);
    if (stats_requested && !write_stats(stats_path)) return 1;
    if (strict && any_unknown) {
      std::fprintf(stderr, "mrmcheck: --strict: UNKNOWN verdicts present\n");
      return 3;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmcheck: %s\n", error.what());
    return 1;
  }
}
