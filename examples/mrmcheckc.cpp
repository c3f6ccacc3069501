// mrmcheckc — command-line client for mrmcheckd:
//
//   mrmcheckc --socket=<path> ping
//   mrmcheckc --socket=<path> load <name> <model.spec | prefix>
//   mrmcheckc --socket=<path> check <model> [w=<w>] [--max-nodes=N]
//             [--deadline-ms=D] [--fallback=p]
//             "<formula>" ["<formula>" ...]
//   mrmcheckc --socket=<path> stats
//   mrmcheckc --socket=<path> shutdown
//
// `load` registers the model under <name> (a `.spec` path builds from the
// guarded-command language; anything else is read as <prefix>.tra/.lab/
// .rewr[/.rewi]) and prints its content fingerprint. `check` prints each
// formula's verdict string ('Y'/'N'/'?' per state, 1-based) and numeric
// values, mirroring mrmcheck's output. Exit codes: 0 ok, 1 daemon-side or
// connection error, 2 usage (checked before connecting, so an unknown
// option or fallback name fails the same with or without a daemon), 4 batch
// completed but some formulas failed.
#include <cstdio>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "obs/json.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mrmcheckc --socket=<path> <op> [args]\n"
               "  ping\n"
               "  load <name> <model.spec | file-prefix>\n"
               "  check <model> [w=<w>] [--max-nodes=N] [--deadline-ms=D]\n"
               "        [--fallback=throw|discretize]\n"
               "        \"<formula>\" [\"<formula>\" ...]\n"
               "  stats\n"
               "  shutdown\n");
}

bool ends_with(const std::string& text, const char* suffix) {
  const std::string s(suffix);
  return text.size() >= s.size() && text.compare(text.size() - s.size(), s.size(), s) == 0;
}

/// Parses `check <model> [options] <formula>...` into `check`; false (after
/// a diagnostic) on a usage error.
bool parse_check(const std::vector<std::string>& args, csrlmrm::daemon::CheckRequest& check) {
  if (args.size() < 3) return false;
  check.model = args[1];
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("w=", 0) == 0) {
      check.options.w = std::stod(token.substr(2));
    } else if (token.rfind("--max-nodes=", 0) == 0) {
      check.options.max_nodes = static_cast<std::size_t>(std::stoull(token.substr(12)));
    } else if (token.rfind("--deadline-ms=", 0) == 0) {
      check.options.deadline_ms = std::stod(token.substr(14));
    } else if (token.rfind("--fallback=", 0) == 0) {
      check.options.fallback = token.substr(11);
      if (*check.options.fallback != "throw" && *check.options.fallback != "discretize") {
        std::fprintf(stderr,
                     "mrmcheckc: --fallback= expects 'throw' or 'discretize', got '%s'\n",
                     check.options.fallback->c_str());
        return false;
      }
    } else if (token.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mrmcheckc: unknown check option '%s'\n", token.c_str());
      return false;
    } else {
      check.formulas.push_back(token);
    }
  }
  return !check.formulas.empty();
}

int print_check_reply(const csrlmrm::daemon::CheckReply& reply) {
  if (!reply.ok) {
    std::fprintf(stderr, "mrmcheckc: check failed: %s\n", reply.error.c_str());
    return 1;
  }
  if (reply.degraded) {
    std::printf("degraded: %s (every verdict '?', enclosure [0,1])\n", reply.error.c_str());
  }
  if (reply.batch_requests > 1) {
    std::printf("batched with %zu requests\n", reply.batch_requests);
  }
  bool any_failed = false;
  for (std::size_t i = 0; i < reply.formulas.size(); ++i) {
    const auto& formula = reply.formulas[i];
    std::printf("[%zu/%zu] formula: %s\n", i + 1, reply.formulas.size(),
                formula.formula.c_str());
    if (!formula.ok) {
      any_failed = true;
      std::printf("  error: %s\n", formula.error.c_str());
      continue;
    }
    if (formula.has_probabilities) {
      for (std::size_t s = 0; s < formula.probabilities.size(); ++s) {
        std::printf("  P(state %zu) = %.17g\n", s + 1, formula.probabilities[s]);
      }
    }
    if (formula.has_values) {
      for (std::size_t s = 0; s < formula.values.size(); ++s) {
        std::printf("  value(state %zu) = %.17g\n", s + 1, formula.values[s]);
      }
    }
    std::printf("  verdicts: %s\n", formula.verdicts.c_str());
  }
  return any_failed ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrlmrm;
  using obs::JsonValue;

  std::string socket_path;
  std::vector<std::string> args;
  for (int arg = 1; arg < argc; ++arg) {
    const std::string token = argv[arg];
    if (token.rfind("--socket=", 0) == 0) {
      socket_path = token.substr(9);
    } else {
      args.push_back(token);
    }
  }
  if (socket_path.empty() || args.empty()) {
    usage();
    return 2;
  }

  try {
    const std::string& op = args[0];
    daemon::CheckRequest check;
    if (op == "check" && !parse_check(args, check)) {
      usage();
      return 2;
    }
    daemon::Client client(socket_path);

    if (op == "ping" || op == "stats" || op == "shutdown") {
      JsonValue request = JsonValue::object();
      request.set("op", JsonValue(op));
      const JsonValue reply = client.roundtrip(request);
      std::printf("%s", obs::write_json(reply).c_str());
      return reply.at("ok").as_bool() ? 0 : 1;
    }

    if (op == "load") {
      if (args.size() != 3) {
        usage();
        return 2;
      }
      JsonValue request = JsonValue::object();
      request.set("op", JsonValue(std::string("load")));
      request.set("name", JsonValue(args[1]));
      if (ends_with(args[2], ".spec")) {
        request.set("spec", JsonValue(args[2]));
      } else {
        request.set("tra", JsonValue(args[2] + ".tra"));
        request.set("lab", JsonValue(args[2] + ".lab"));
        request.set("rewr", JsonValue(args[2] + ".rewr"));
        request.set("rewi", JsonValue(args[2] + ".rewi"));
      }
      const JsonValue reply = client.roundtrip(request);
      std::printf("%s", obs::write_json(reply).c_str());
      return reply.at("ok").as_bool() ? 0 : 1;
    }

    if (op == "check") {
      const JsonValue reply = client.roundtrip(daemon::check_request_to_json(check));
      return print_check_reply(daemon::check_reply_from_json(reply));
    }

    std::fprintf(stderr, "mrmcheckc: unknown op '%s'\n", op.c_str());
    usage();
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmcheckc: %s\n", error.what());
    return 1;
  }
}
