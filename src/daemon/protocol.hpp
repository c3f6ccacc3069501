// Wire protocol of mrmcheckd: newline-delimited JSON over a unix domain
// socket. Every request is one JSON object on one line; every reply is one
// JSON object on one line. The request's "id" member (any string) is echoed
// back verbatim so clients can pipeline.
//
// Operations ("op" member):
//
//   {"op":"ping"}                            -> {"ok":true}
//   {"op":"load","name":"tmr","tra":...,
//    "lab":...,"rewr":...,"rewi":...}        -> {"ok":true,"model":"<fp>",
//   {"op":"load","name":"q","spec":...}          "states":N,"resident":K}
//   {"op":"check","model":"<fp-or-name>",
//    "formulas":["...",...],"options":{...}} -> CheckReply (below)
//   {"op":"stats"}                           -> {"ok":true,"stats":{...}}
//   {"op":"shutdown"}                        -> {"ok":true} then server exit
//
// Check options override the daemon's base CheckerOptions per request:
// "w" (uniformization truncation probability), "max_nodes" (node budget),
// "deadline_ms" (admission deadline: a request still queued when it expires
// is answered degraded instead of checked) and "fallback"
// ("throw"|"discretize"). Any other key is rejected with an error reply that
// names it, so a typo never runs silently with the base options.
//
// A CheckReply carries per-formula results (verdict string with one
// 'Y'/'N'/'?' per state, plus the numeric values the CLI would print), the
// stats *delta* attributable to the batch that served the request (see
// obs::StatsSnapshot), how many requests shared that batch, and a
// "degraded" marker: a degraded reply answers every state '?' with the
// trivial enclosure [0,1] — the honest UNKNOWN-with-interval answer the
// three-valued semantics already defines for "not computed". JSON has no
// number for a non-finite double, so the value and bound arrays carry
// +-infinity (an unreachable R[F] target) and NaN as the strings
// "Infinity", "-Infinity" and "NaN"; a decoded NaN is the quiet NaN.
//
// A request line longer than kMaxRequestLineBytes gets one
// {"ok":false,"error":...} reply naming the cap, and the server closes that
// connection; other clients are not affected.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "checker/options.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::daemon {

/// The longest request line a connection may send (16 MiB), newline
/// excluded. Far above any real batch (a 300 000-byte ping id passes), it
/// bounds what one client can make the daemon buffer.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

/// Per-request overrides of the daemon's base CheckerOptions. Unset fields
/// inherit the base. deadline_ms is admission control, not a numeric knob —
/// it never affects results, only whether the request is answered degraded.
struct CheckOverrides {
  std::optional<double> w;
  std::optional<std::size_t> max_nodes;
  std::optional<double> deadline_ms;
  std::optional<std::string> fallback;
};

struct CheckRequest {
  /// Registry key: a load-time name or a content fingerprint.
  std::string model;
  std::vector<std::string> formulas;
  CheckOverrides options;
};

/// One formula's outcome. A formula that fails to parse, or fails at solve
/// time (an unsupported bound shape, Theorem 4.2's Psi => Phi, a Poisson
/// window past 2^53), fails alone: ok=false with its error, while the rest
/// of the batch is answered.
struct FormulaReply {
  bool ok = false;
  std::string formula;
  std::string error;
  /// One char per state, 1-based order: 'Y' sat, 'N' unsat, '?' unknown.
  std::string verdicts;
  bool has_probabilities = false;
  std::vector<double> probabilities;
  bool has_values = false;
  std::vector<double> values;
  bool has_bounds = false;
  std::vector<double> bound_lower;
  std::vector<double> bound_upper;
};

struct CheckReply {
  bool ok = false;
  /// True when admission control answered without checking (queue overflow
  /// or expired deadline): every formula reads all-'?' with bounds [0,1].
  bool degraded = false;
  std::string error;
  /// How many requests the serving batch combined (>= 1).
  std::size_t batch_requests = 1;
  std::vector<FormulaReply> formulas;
  /// Stats recorded while the serving batch ran (shared across its
  /// requests, since the solves themselves are shared).
  obs::StatsSnapshot stats_delta;
};

/// `base` with the request's overrides applied. Throws std::invalid_argument
/// on an unknown fallback name or a non-positive w/max_nodes.
checker::CheckerOptions apply_overrides(checker::CheckerOptions base,
                                        const CheckOverrides& overrides);

/// Groups requests that may share one compiled plan: same model key and
/// numerically relevant overrides (deadline_ms excluded — it never changes
/// results).
std::string batch_key(const CheckRequest& request);

obs::JsonValue check_request_to_json(const CheckRequest& request);
/// Throws std::invalid_argument on a structurally invalid request object,
/// including an `options` key other than w, max_nodes, deadline_ms and
/// fallback.
CheckRequest check_request_from_json(const obs::JsonValue& value);

obs::JsonValue check_reply_to_json(const CheckReply& reply);
CheckReply check_reply_from_json(const obs::JsonValue& value);

/// One protocol line: compact JSON plus the terminating newline.
std::string frame(const obs::JsonValue& value);

}  // namespace csrlmrm::daemon
