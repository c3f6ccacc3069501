#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "checker/options.hpp"
#include "checker/sat.hpp"
#include "core/mrm.hpp"
#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "graph/scc.hpp"
#include "io/model_files.hpp"
#include "lang/builder.hpp"
#include "logic/parser.hpp"
#include "models/generator.hpp"
#include "models/tmr.hpp"

namespace perfbench {

namespace core = csrlmrm::core;
namespace checker = csrlmrm::checker;
namespace daemon = csrlmrm::daemon;
namespace logic = csrlmrm::logic;
namespace models = csrlmrm::models;
namespace obs = csrlmrm::obs;
using obs::JsonValue;

namespace {

/// Every checker call runs single-threaded: the host's slow phases are
/// noise enough without thread scheduling on top.
checker::CheckerOptions serial_options() {
  checker::CheckerOptions options;
  options.threads = 1;
  return options;
}

std::string format_double(double value) {
  char text[48];
  std::snprintf(text, sizeof(text), "%.6g", value);
  return text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double csr_bytes(const csrlmrm::linalg::CsrMatrix& matrix) {
  return static_cast<double>(matrix.non_zeros() * sizeof(csrlmrm::linalg::Entry) +
                             (matrix.rows() + 1) * sizeof(std::size_t));
}

JsonValue model_json(const std::string& name, const core::Mrm& model) {
  JsonValue entry = JsonValue::object();
  entry.set("name", JsonValue(name));
  entry.set("states", JsonValue(static_cast<double>(model.num_states())));
  entry.set("transitions", JsonValue(static_cast<double>(model.rates().matrix().non_zeros())));
  entry.set("rate_csr_bytes", JsonValue(csr_bytes(model.rates().matrix())));
  return entry;
}

/// One query through a fresh ModelChecker: parse, check, read verdicts and
/// enclosures — what a one-shot mrmcheck run does after loading its model.
/// The check's span is opaque: only its obs timers and re-timed calls
/// attribute its time.
Answer check_direct(const core::Mrm& model, const std::string& text, std::size_t report_state,
                    Tracer* tracer) {
  Answer answer;
  try {
    logic::FormulaPtr formula;
    {
      SpanGuard span(tracer, "logic::parse_formula", Layer::kLogic);
      const std::uint64_t start = now_ns();
      formula = logic::parse_formula(text);
      if (tracer != nullptr) tracer->add_parse(static_cast<double>(now_ns() - start));
    }
    SpanGuard span(tracer, "checker::ModelChecker", Layer::kChecker, /*opaque=*/true);
    checker::ModelChecker model_checker(model, serial_options());
    answer.verdicts = verdict_string(model_checker.verdicts(formula));
    set_bounds(answer, model_checker.value_bounds(formula), report_state);
    answer.ok = true;
  } catch (const std::exception& error) {
    answer.error = error.what();
  }
  return answer;
}

/// Pool entries at evenly spaced points of [lo, hi], so every entry of a
/// class has its own value of the swept parameter.
double spread(double lo, double hi, std::size_t i, std::size_t n) {
  return lo + (hi - lo) * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
}

// --- model builders --------------------------------------------------------

core::Mrm build_spec(const std::string& path) {
  auto built = csrlmrm::lang::build_model_from_text(read_file(path));
  return std::move(*built.model);
}

core::Mrm build_nmr(const std::string& variable) {
  return models::make_tmr(models::chapter5_nmr_config(variable == "variable"));
}

core::Mrm generate(const std::string& spec) { return models::make_generated_mrm(spec); }

// --- steady_reward ----------------------------------------------------------

/// Long-run and reward operators on small/medium generator models, checked
/// in process with a fresh ModelChecker per query: the only workload
/// reaching graph SCC/BSCC and the linear solvers.
class SteadyReward : public Workload {
 public:
  SteadyReward() { build_pool(); }

  void setup(Tracer* tracer) override {
    for (const char* spec : kModels) {
      SpanGuard span(tracer, "models::make_generated_mrm", Layer::kModels);
      models_.push_back({spec, std::make_unique<core::Mrm>(generate(spec))});
    }
  }

  std::size_t setup_states() const override {
    std::size_t states = 0;
    for (const auto& entry : models_) states += entry.model->num_states();
    return states;
  }
  std::size_t pool_size() const override { return pool_.size(); }
  std::string describe_query(std::size_t index) const override { return key(index); }

  /// Stratified: each class's entries in seeded order, the classes
  /// interleaved by smooth weighted round robin in proportion to their pool
  /// shares, so every stretch of a run has the same class mix and a seed
  /// changes which queries run, not how many of each class.
  std::vector<std::size_t> request_order(std::uint64_t seed) const override {
    std::map<std::string, std::vector<std::size_t>> classes;
    for (std::size_t i = 0; i < pool_.size(); ++i) classes[query_class(i)].push_back(i);
    Rng rng(seed);
    std::vector<std::vector<std::size_t>> lists;
    for (auto& [name, members] : classes) {
      std::vector<std::size_t> shuffled;
      for (const std::size_t k : shuffled_indices(members.size(), rng)) {
        shuffled.push_back(members[k]);
      }
      lists.push_back(std::move(shuffled));
    }
    std::vector<double> credit(lists.size(), 0.0);
    std::vector<std::size_t> taken(lists.size(), 0);
    std::vector<std::size_t> order;
    for (std::size_t step = 0; step < pool_.size(); ++step) {
      std::size_t best = 0;
      for (std::size_t c = 0; c < lists.size(); ++c) {
        credit[c] += static_cast<double>(lists[c].size()) / static_cast<double>(pool_.size());
        if (credit[c] > credit[best]) best = c;
      }
      credit[best] -= 1.0;
      order.push_back(lists[best][taken[best]++ % lists[best].size()]);
    }
    return order;
  }
  std::string query_class(std::size_t index) const override {
    const PoolQuery& query = pool_[index];
    const std::size_t bracket = query.formula.find('[');
    return std::string(kModels[query.model]) + " " + query.formula.substr(0, 1) +
           (bracket == std::string::npos ? "" : query.formula.substr(bracket, 2));
  }

  Outcome run(std::size_t, std::size_t index, Tracer* tracer) override {
    const PoolQuery& query = pool_[index];
    if (tracer != nullptr && query.steady) retime_bsccs(query.model, *tracer);
    Outcome outcome;
    const std::uint64_t start = now_ns();
    Answer answer = check_direct(*models_[query.model].model, query.formula, 0, tracer);
    outcome.latency_ns = static_cast<double>(now_ns() - start);
    outcome.answers.emplace_back(key(index), std::move(answer));
    return outcome;
  }

  void teardown() override { models_.clear(); }

  std::vector<std::pair<std::string, Answer>> reference(std::size_t index) override {
    const PoolQuery& query = pool_[index];
    return {{key(index), check_direct(*models_[query.model].model, query.formula, 0, nullptr)}};
  }

  JsonValue describe_models() const override {
    JsonValue list = JsonValue::array();
    for (const auto& entry : models_) list.push_back(model_json(entry.name, *entry.model));
    return list;
  }

 private:
  struct NamedModel {
    std::string name;
    std::unique_ptr<core::Mrm> model;
  };
  struct PoolQuery {
    std::size_t model = 0;  // index into kModels
    std::string formula;
    bool steady = false;    // computes BSCCs
  };

  static constexpr const char* kModels[] = {
      "crowd:population=60", "virus:hosts=9",        "crowd:population=12", "virus:hosts=5",
      "crowd:population=140", "crowd:population=200", "virus:hosts=10"};

  /// Golden key; the answer is reported at state 0.
  std::string key(std::size_t index) const {
    const PoolQuery& query = pool_[index];
    return std::string(kModels[query.model]) + "@0|" + query.formula;
  }

  void build_pool() {
    struct Class {
      std::size_t model;
      const char* shape;  // printf with one threshold (and t for C[0,t])
      double lo, hi;      // threshold range
      double t_lo, t_hi;  // C[0,t] only
      bool steady;
    };
    const Class classes[] = {
        {0, "S(>%s) outbreak", 0.0, 0.5, 0, 0, true},
        {1, "S(>%s) epidemic", 0.0, 0.5, 0, 0, true},
        {5, "P(>%s)[!extinct U outbreak]", 0.1, 0.9, 0, 0, false},
        {6, "P(>%s)[!clean U epidemic]", 0.1, 0.9, 0, 0, false},
        {4, "R(<%s)[F extinct]", 5.0, 200.0, 0, 0, false},
        {2, "R(<%s)[C[0,%s]]", 1.0, 30.0, 9.8, 10.2, false},
        {3, "R(<%s)[C[0,%s]]", 1.0, 30.0, 9.8, 10.2, false},
        {2, "R(<%s)[S]", 0.0, 3.0, 0, 0, true},
        {3, "R(<%s)[S]", 0.0, 3.0, 0, 0, true},
    };
    constexpr std::size_t kPerClass = 200;
    std::size_t class_id = 0;
    for (const Class& c : classes) {
      Rng rng(3000 + class_id++);
      for (std::size_t i = 0; i < kPerClass; ++i) {
        const double threshold = c.lo + (c.hi - c.lo) * rng.uniform();
        char text[160];
        std::snprintf(text, sizeof(text), c.shape, format_double(threshold).c_str(),
                      format_double(spread(c.t_lo, c.t_hi, i, kPerClass)).c_str());
        pool_.push_back({c.model, text, c.steady});
      }
    }
  }

  /// BSCC search runs inside the checker.steady timer without a timer of its
  /// own; the traced run re-times it (untimed, before the query) and moves
  /// that time from checker to graph.
  void retime_bsccs(std::size_t model, Tracer& tracer) const {
    const std::uint64_t start = now_ns();
    const auto bsccs = csrlmrm::graph::bottom_sccs(models_[model].model->rates().matrix());
    tracer.reassign(Layer::kChecker, Layer::kGraph, static_cast<double>(now_ns() - start));
  }

  std::vector<NamedModel> models_;
  std::vector<PoolQuery> pool_;
};

// --- service_mixed ----------------------------------------------------------

constexpr std::size_t kVariants = 6;
constexpr std::size_t kLoadEvery = 8;

struct ServiceModel {
  std::string name;
  std::string load_json;  // the load request's file members
};

/// Two clients against an in-process DaemonServer on a unix socket: skewed
/// repeated batches over resident models plus periodic loads that evict.
class ServiceMixed : public Workload {
 public:
  ServiceMixed(std::string repo_root, std::string scratch_dir)
      : root_(std::move(repo_root)), scratch_(std::move(scratch_dir)) {
    prepare_files();
    build_pool();
  }
  ~ServiceMixed() override { teardown(); }

  void setup(Tracer* tracer) override {
    daemon::ServerOptions options;
    options.socket_path = scratch_ + "/service.sock";
    options.service.checker = serial_options();
    server_ = std::make_unique<daemon::DaemonServer>(options);
    {
      SpanGuard span(tracer, "daemon::DaemonServer::start", Layer::kDaemon);
      server_->start();
    }
    states_ = 0;
    // The models without files of their own are generated in process and
    // preloaded, as mrmcheckd --preload does; their files (written once, at
    // construction) serve reloads after an eviction.
    for (const std::string& name : {std::string("nmr11"), std::string("crowd")}) {
      std::unique_ptr<core::Mrm> model;
      {
        SpanGuard span(tracer, name == "nmr11" ? "models::make_tmr" : "models::make_generated_mrm",
                       Layer::kModels);
        model = std::make_unique<core::Mrm>(name == "nmr11" ? build_nmr("variable")
                                                           : generate(kGenerated));
      }
      states_ += model->num_states();
      SpanGuard span(tracer, "daemon::ModelRegistry::add", Layer::kDaemon);
      server_->registry().add(std::move(*model), name);
    }
    clients_.clear();
    for (std::size_t c = 0; c < clients(); ++c) {
      clients_.push_back(std::make_unique<daemon::Client>(options.socket_path));
    }
    for (const ServiceModel& model : base_) {
      if (model.name == "nmr11" || model.name == "crowd") continue;
      SpanGuard span(tracer, "daemon::Client::roundtrip(load)", Layer::kDaemon);
      states_ += load(0, model);
    }
  }

  void teardown() override {
    clients_.clear();
    if (server_ != nullptr) server_->stop();
    server_.reset();
  }

  std::size_t setup_states() const override { return states_; }
  std::size_t clients() const override { return 2; }
  std::size_t pool_size() const override { return pool_.size(); }

  std::vector<std::size_t> request_order(std::uint64_t seed) const override {
    // Per client: a Zipf-like draw over the check batches, every kLoadEvery-th
    // request a variant load followed by a check of that variant. The client
    // sequences interleave so client c takes positions c, c+2, ...
    constexpr std::size_t kLength = 200000;
    std::vector<std::vector<std::size_t>> per_client(clients());
    for (std::size_t c = 0; c < clients(); ++c) {
      Rng rng(seed * 7919 + c);
      std::vector<double> cumulative;
      double total = 0.0;
      for (std::size_t b = 0; b < batches_; ++b) {
        total += pool_[b].weight;
        cumulative.push_back(total);
      }
      auto& order = per_client[c];
      std::size_t variant = rng.below(kVariants);
      while (order.size() < kLength / clients()) {
        if (order.size() % kLoadEvery == kLoadEvery - 2) {
          variant = (variant + 1) % kVariants;
          order.push_back(batches_ + variant);
          order.push_back(batches_ + kVariants + variant);
          continue;
        }
        const double u = rng.uniform() * total;
        const std::size_t pick =
            static_cast<std::size_t>(std::lower_bound(cumulative.begin(), cumulative.end(), u) -
                                     cumulative.begin());
        order.push_back(std::min(pick, batches_ - 1));
      }
    }
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < kLength / clients(); ++i) {
      for (std::size_t c = 0; c < clients(); ++c) order.push_back(per_client[c][i]);
    }
    return order;
  }

  std::string query_class(std::size_t index) const override {
    const Request& request = pool_[index];
    if (request.load) return "load";
    return request.model.rfind("tmr_v", 0) == 0 ? "tmr_variant" : request.model;
  }

  std::string describe_query(std::size_t index) const override {
    const Request& request = pool_[index];
    if (request.load) return "load " + request.model;
    std::string text = request.model + ":";
    for (const std::string& formula : request.formulas) text += " " + formula + ";";
    return text;
  }

  bool in_process() const override { return false; }

  Outcome run(std::size_t client, std::size_t index, Tracer* tracer) override {
    const Request& request = pool_[index];
    Outcome outcome;
    const std::uint64_t start = now_ns();
    if (request.load) {
      outcome.is_load = true;
      Answer answer;
      {
        SpanGuard span(tracer, "daemon::Client::roundtrip(load)", Layer::kDaemon, /*opaque=*/true);
        try {
          answer.ok = load(client, find_model(request.model)) > 0;
        } catch (const std::exception& error) {
          answer.error = error.what();
        }
      }
      outcome.latency_ns = static_cast<double>(now_ns() - start);
      outcome.answers.emplace_back("", answer);
      if (tracer != nullptr) {
        // The service builds the model without a timer of its own: re-time
        // the build here (a spec through lang, files through io).
        const ServiceModel& model = find_model(request.model);
        const std::uint64_t build_start = now_ns();
        const core::Mrm built = build_reference_model(model);
        tracer->claim(model.load_json.rfind("\"spec\"", 0) == 0 ? Layer::kLang : Layer::kIo,
                      static_cast<double>(now_ns() - build_start));
        claim_transport(client, tracer);
      }
      return outcome;
    }
    daemon::CheckRequest check;
    check.model = request.model;
    check.formulas = request.formulas;
    const JsonValue message = daemon::check_request_to_json(check);
    daemon::CheckReply reply;
    try {
      SpanGuard span(tracer, "daemon::Client::roundtrip", Layer::kDaemon, /*opaque=*/true);
      reply = daemon::check_reply_from_json(clients_[client]->roundtrip(message));
      if (!reply.ok && reply.error.find("not resident") != std::string::npos) {
        // The registry evicted the model: reload it and ask again, as a real
        // client of the LRU would. Counted as a registry miss.
        outcome.registry_hit = false;
        load(client, find_model(request.model));
        reply = daemon::check_reply_from_json(clients_[client]->roundtrip(message));
      }
    } catch (const std::exception& error) {
      reply.ok = false;
      reply.error = error.what();
    }
    const std::uint64_t end = now_ns();
    outcome.latency_ns = static_cast<double>(end - start);
    if (tracer != nullptr) {
      // The service parses formulas without a timer of its own: re-time the
      // parse here and give that time to logic.
      for (const std::string& formula : request.formulas) {
        const std::uint64_t parse_start = now_ns();
        const logic::FormulaPtr parsed = logic::parse_formula(formula);
        const double parse_ns = static_cast<double>(now_ns() - parse_start);
        tracer->add_parse(parse_ns);
        tracer->claim(Layer::kLogic, parse_ns);
      }
      const double ping_ns = claim_transport(client, tracer);
      // Encoding and decoding the request and the reply (per-state verdicts
      // and bounds) carry no timer either: re-time both codecs.
      const std::uint64_t codec_start = now_ns();
      const daemon::CheckRequest decoded_request =
          daemon::check_request_from_json(obs::parse_json(daemon::frame(message)));
      const std::uint64_t request_end = now_ns();
      const std::string reply_line = daemon::frame(daemon::check_reply_to_json(reply));
      const std::uint64_t decode_start = now_ns();
      const daemon::CheckReply decoded_reply =
          daemon::check_reply_from_json(obs::parse_json(reply_line));
      const std::uint64_t codec_end = now_ns();
      tracer->claim(Layer::kDaemon, static_cast<double>(codec_end - codec_start));
      // The request reached the dispatcher's queue about half a ping and its
      // codec after it was sent; the dispatcher was done with it about half a
      // ping and the reply's decoding before the client saw the answer.
      const double queued_ns = static_cast<double>(start) + 0.5 * ping_ns +
                               static_cast<double>(request_end - codec_start);
      const double ready_ns =
          static_cast<double>(end) - static_cast<double>(codec_end - decode_start) - 0.5 * ping_ns;
      const std::lock_guard<std::mutex> lock(checks_mutex_);
      traced_checks_.push_back({tracer, client, queued_ns, ready_ns, reply.batch_requests == 1});
    }
    outcome.batch_requests = reply.batch_requests;
    outcome.counters = reply.stats_delta.counters;
    outcome.gauges = reply.stats_delta.gauges;
    outcome.reward_bounded = request.reward_bounded;
    for (std::size_t f = 0; f < request.formulas.size(); ++f) {
      Answer answer;
      answer.ok = reply.ok;
      answer.error = reply.error;
      answer.degraded = reply.degraded;
      if (reply.ok && f < reply.formulas.size()) {
        const daemon::FormulaReply& formula = reply.formulas[f];
        answer.ok = formula.ok;
        answer.error = formula.error;
        answer.verdicts = formula.verdicts;
        std::vector<checker::ProbabilityBound> bounds;
        for (std::size_t s = 0; s < formula.bound_lower.size(); ++s) {
          bounds.push_back({formula.bound_lower[s], formula.bound_upper[s]});
        }
        set_bounds(answer, bounds, 0);
      }
      outcome.answers.emplace_back(request.model + "|" + request.formulas[f], answer);
    }
    return outcome;
  }

  std::vector<std::pair<std::string, Answer>> reference(std::size_t index) override {
    const Request& request = pool_[index];
    std::vector<std::pair<std::string, Answer>> answers;
    if (request.load) return answers;
    const core::Mrm model = build_reference_model(find_model(request.model));
    for (const std::string& formula : request.formulas) {
      answers.emplace_back(request.model + "|" + formula, check_direct(model, formula, 0, nullptr));
    }
    return answers;
  }

  JsonValue describe_models() const override {
    JsonValue list = JsonValue::array();
    for (const ServiceModel& model : base_) {
      list.push_back(model_json(model.name, build_reference_model(model)));
    }
    return list;
  }

  /// The dispatcher runs one batch at a time, so a check also waits while
  /// another client's batch runs; no timer covers that queue wait. A check
  /// answered alone while another client's check was queued ran while that
  /// check waited: from the later of the two queue arrivals to when the
  /// dispatcher had answered it. That wait is the daemon's.
  void end_traced_block() override {
    const std::lock_guard<std::mutex> lock(checks_mutex_);
    for (const TracedCheck& waiting : traced_checks_) {
      double wait_ns = 0.0;
      for (const TracedCheck& running : traced_checks_) {
        if (running.client == waiting.client || !running.alone ||
            running.ready_ns <= waiting.queued_ns || running.ready_ns >= waiting.ready_ns) {
          continue;
        }
        wait_ns += std::max(
            0.0, running.ready_ns - std::max(waiting.queued_ns, running.queued_ns));
      }
      waiting.tracer->claim_wait(Layer::kDaemon, wait_ns);
    }
    traced_checks_.clear();
  }

  void warm_up(double seconds) override {
    // A long-lived service is measured at its steady state: one untimed pass
    // over the batches fills the transform, Omega and Poisson caches.
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t b = 0; b < batches_ && now_ns() < deadline; ++b) run(0, b, nullptr);
  }

 private:
  struct Request {
    std::string model;
    std::vector<std::string> formulas;
    bool load = false;
    bool reward_bounded = false;
    double weight = 0.0;  // share of the check batches drawn
  };

  void prepare_files() {
    const std::string dir = root_ + "/examples/models/";
    auto files = [](const std::string& prefix) {
      return "\"tra\":\"" + prefix + ".tra\",\"lab\":\"" + prefix + ".lab\",\"rewr\":\"" +
             prefix + ".rewr\",\"rewi\":\"" + prefix + ".rewi\"";
    };
    csrlmrm::io::save_mrm(build_nmr("variable"), scratch_ + "/nmr11");
    csrlmrm::io::save_mrm(generate(kGenerated), scratch_ + "/crowd");
    base_ = {{"tmr", "\"spec\":\"" + dir + "tmr.spec\""},
             {"cellphone", files(dir + "cellphone")},
             {"wavelan", files(dir + "wavelan")},
             {"nmr11", files(scratch_ + "/nmr11")},
             {"crowd", files(scratch_ + "/crowd")}};
    const std::string spec = read_file(dir + "tmr.spec");
    const std::string needle = "moduleFailure = 0.0004";
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::string text = spec;
      const std::size_t at = text.find(needle);
      if (at == std::string::npos) throw std::runtime_error("tmr.spec: moduleFailure not found");
      text.replace(at, needle.size(),
                   "moduleFailure = " + format_double(0.0004 * (1.0 + 0.25 * double(v + 1))));
      const std::string path = scratch_ + "/tmr_v" + std::to_string(v) + ".spec";
      std::ofstream(path) << text;
      variants_.push_back({"tmr_v" + std::to_string(v), "\"spec\":\"" + path + "\""});
    }
  }

  void build_pool() {
    // Batches share path formulas under different thresholds, so the plan
    // compiler's CSE answers two formulas with one solve. The weights are
    // fixed (the seed only draws the sequence) and put the median inside the
    // cellphone class and the 90th percentile inside the NMR class: requests
    // whose time is mostly checking, not cross-thread wake-ups.
    auto add = [this](const std::string& model, const std::string& path, const char* low,
                      const char* high, bool p2, double weight) {
      pool_.push_back({model, {"P(>" + std::string(low) + ")[" + path,
                               "P(>" + std::string(high) + ")[" + path},
                       false, p2, weight});
    };
    for (const char* t : {"100", "150", "200", "250", "300"}) {
      add("tmr", std::string("Sup U[0,") + t + "][0,3000] failed]", "0.1", "0.5", true, 2.0);
    }
    for (const char* t : {"0.5", "1"}) {
      add("wavelan", std::string("idle U[0,") + t + "][0,100] busy]", "0.3", "0.7", true, 2.5);
    }
    for (const char* r : {"400", "600"}) {
      add("cellphone", std::string("(Call_Idle || Doze) U[0,24][0,") + r + "] Call_Initiated]",
          "0.5", "0.1", true, 27.5);
    }
    for (const char* t : {"2", "4"}) {
      add("crowd", std::string("TT U[0,") + t + "] outbreak]", "0.2", "0.6", false, 4.0);
    }
    for (const char* t : {"20", "30"}) {
      add("nmr11", std::string("TT U[0,") + t + "][0,400] allUp]", "0.1", "0.5", true, 6.0);
    }
    batches_ = pool_.size();
    for (const ServiceModel& variant : variants_) {
      pool_.push_back({variant.name, {}, true, false, 0.0});
    }
    for (const ServiceModel& variant : variants_) {
      pool_.push_back(
          {variant.name, {"P(>0.1)[Sup U[0,200][0,3000] failed]"}, false, true, 0.0});
    }
  }

  const ServiceModel& find_model(const std::string& name) const {
    for (const auto* list : {&base_, &variants_}) {
      for (const ServiceModel& model : *list) {
        if (model.name == name) return model;
      }
    }
    throw std::invalid_argument("unknown service model " + name);
  }

  core::Mrm build_reference_model(const ServiceModel& model) const {
    const JsonValue request = obs::parse_json("{" + model.load_json + "}");
    if (const JsonValue* spec = request.find("spec")) return build_spec(spec->as_string());
    return csrlmrm::io::load_mrm(request.at("tra").as_string(), request.at("lab").as_string(),
                                 request.at("rewr").as_string(), request.at("rewi").as_string());
  }

  /// The socket transport and JSON framing of one request carry no timer:
  /// re-time a ping round trip (answered on the connection thread, not
  /// queued) and give that time to daemon.
  double claim_transport(std::size_t client, Tracer* tracer) {
    static const JsonValue ping = obs::parse_json("{\"op\":\"ping\"}");
    const std::uint64_t start = now_ns();
    clients_[client]->roundtrip(ping);
    const double ns = static_cast<double>(now_ns() - start);
    tracer->claim(Layer::kDaemon, ns);
    return ns;
  }

  /// Sends a load request; returns the model's state count (0 on failure).
  std::size_t load(std::size_t client, const ServiceModel& model) {
    const JsonValue request = obs::parse_json("{\"op\":\"load\",\"name\":\"" + model.name +
                                              "\"," + model.load_json + "}");
    const JsonValue reply = clients_[client]->roundtrip(request);
    if (!reply.at("ok").as_bool()) return 0;
    return static_cast<std::size_t>(reply.at("states").as_number());
  }

  static constexpr const char* kGenerated = "crowd:population=100";

  std::string root_;
  std::string scratch_;
  std::vector<ServiceModel> base_;
  std::vector<ServiceModel> variants_;
  std::vector<Request> pool_;
  std::size_t batches_ = 0;
  std::unique_ptr<daemon::DaemonServer> server_;
  std::vector<std::unique_ptr<daemon::Client>> clients_;
  std::size_t states_ = 0;

  struct TracedCheck {
    Tracer* tracer;
    std::size_t client;
    double queued_ns;  // when it reached the dispatcher's queue (estimated)
    double ready_ns;   // when the dispatcher had answered it (estimated)
    bool alone;       // answered in a batch of its own
  };
  std::mutex checks_mutex_;
  std::vector<TracedCheck> traced_checks_;  // lint:guarded_by(checks_mutex_)
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& repo_root,
                                        const std::string& scratch_dir) {
  if (name == "steady_reward") return std::make_unique<SteadyReward>();
  if (name == "service_mixed") return std::make_unique<ServiceMixed>(repo_root, scratch_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
