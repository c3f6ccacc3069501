// mrmcheckd — the long-lived model-checking service:
//
//   mrmcheckd --socket=<path> [--threads N] [--max-queue N]
//             [--models N] [--stats]
//             [--preload name=<model.spec> | name=<prefix> ...]
//
// Listens on a unix domain socket for newline-delimited JSON requests (see
// src/daemon/protocol.hpp for the protocol): load a model once, check many
// formula batches against it with warm caches, read /stats, shut down.
// Same-model requests arriving together are batched into one shared plan
// execution; results are bitwise-identical to a cold one-shot mrmcheck run.
//
// --preload registers models at startup: `name=<file.spec>` builds from a
// guarded-command spec, `name=gen:<family:k=v,...>` explores a streamed
// generator (src/models/generator.hpp) without ever materializing model
// files, and `name=<prefix>` reads <prefix>.tra/.lab/.rewr (and .rewi when
// present).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "daemon/server.hpp"
#include "io/model_files.hpp"
#include "lang/builder.hpp"
#include "models/generator.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mrmcheckd --socket=<path> [--threads N] [--max-queue N]\n"
               "                 [--models N] [--stats] [--preload name=<model> ...]\n"
               "\n"
               "  --socket=<path>   unix socket to listen on (required)\n"
               "  --threads N       worker threads for the numeric engines\n"
               "  --max-queue N     pending requests admitted before answering\n"
               "                    degraded (default 64)\n"
               "  --models N        resident model capacity (default 8, LRU)\n"
               "  --stats           enable engine statistics collection\n"
               "  --preload name=<model.spec or prefix or gen:spec>  register a\n"
               "                    model at startup under the given name;\n"
               "                    gen:<family:k=v,...> streams it from a model\n"
               "                    generator (families: crowd, grid, virus)\n");
}

bool parse_count(const std::string& text, const char* flag, std::size_t& out) {
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(text, &consumed);
    if (consumed != text.size() || value == 0) throw std::invalid_argument(text);
    out = static_cast<std::size_t>(value);
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "mrmcheckd: %s expects a positive integer, got '%s'\n", flag,
                 text.c_str());
    return false;
  }
}

bool ends_with(const std::string& text, const char* suffix) {
  const std::string s(suffix);
  return text.size() >= s.size() && text.compare(text.size() - s.size(), s.size(), s) == 0;
}

csrlmrm::core::Mrm load_preload_model(const std::string& path) {
  using namespace csrlmrm;
  if (path.rfind("gen:", 0) == 0) return models::make_generated_mrm(path.substr(4));
  if (ends_with(path, ".spec")) return std::move(*lang::build_model_from_file(path).model);
  std::ifstream rewi_probe(path + ".rewi");
  return io::load_mrm(path + ".tra", path + ".lab", path + ".rewr",
                      rewi_probe ? path + ".rewi" : "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrlmrm;
  daemon::ServerOptions options;
  std::vector<std::pair<std::string, std::string>> preloads;  // name -> path
  for (int arg = 1; arg < argc; ++arg) {
    const std::string token = argv[arg];
    if (token.rfind("--socket=", 0) == 0) {
      options.socket_path = token.substr(9);
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
      std::size_t threads = 0;
      if (!parse_count(value, "--threads", threads)) return 2;
      options.service.checker.threads = static_cast<unsigned>(threads);
      parallel::set_default_thread_count(static_cast<unsigned>(threads));
    } else if (token.rfind("--max-queue=", 0) == 0) {
      if (!parse_count(token.substr(12), "--max-queue=", options.service.max_queue)) return 2;
    } else if (token.rfind("--models=", 0) == 0) {
      if (!parse_count(token.substr(9), "--models=", options.registry_capacity)) return 2;
    } else if (token == "--stats") {
      obs::set_stats_enabled(true);
    } else if (token == "--preload") {
      if (arg + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string spec = argv[++arg];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "mrmcheckd: --preload expects name=<model>, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      std::fprintf(stderr, "mrmcheckd: unknown option '%s'\n", token.c_str());
      usage();
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    usage();
    return 2;
  }

  try {
    daemon::DaemonServer server(std::move(options));
    for (const auto& [name, path] : preloads) {
      const auto resident = server.registry().add(load_preload_model(path), name);
      std::printf("mrmcheckd: preloaded '%s' (%s, %zu states)\n", name.c_str(),
                  resident->fingerprint.c_str(), resident->model->num_states());
    }
    server.start();
    std::printf("mrmcheckd: listening on %s\n", server.socket_path().c_str());
    std::fflush(stdout);
    server.wait_for_shutdown();
    server.stop();
    std::printf("mrmcheckd: shut down\n");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmcheckd: %s\n", error.what());
    return 1;
  }
}
