#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>

#include "ir.hpp"

namespace csrlmrm::lint {

namespace {

void report(std::vector<Diagnostic>& out, std::string_view rule, const FileContext& ctx,
            const Token& tok, std::string message) {
  out.push_back(Diagnostic{std::string(rule), ctx.path(), tok.line, tok.column,
                           std::move(message), {}});
}

// ---------------------------------------------------------------------------
// float-equality: no raw ==/!= against floating-point literals. Exact
// comparisons are only legitimate inside the approved approx_*/exactly_*
// helpers (src/core/approx.hpp), which make the intent machine-visible; a
// tolerance comparison belongs in approx_eq. Heuristic scope: fires when
// either operand adjacent to the comparison is a floating literal (the
// lexer cannot type arbitrary expressions).
class FloatEqualityRule : public Rule {
 public:
  std::string_view name() const override { return "float-equality"; }
  std::string_view description() const override {
    return "no raw ==/!= on floating-point values; use approx_eq/exactly_zero "
           "from core/approx.hpp so intent (tolerance vs exact-by-design) is explicit";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kPunct) continue;
      const std::string_view op = ctx.text(toks[i]);
      if (op != "==" && op != "!=") continue;
      bool floaty = false;
      if (i > 0 && toks[i - 1].kind == TokenKind::kNumber && toks[i - 1].is_float_literal) {
        floaty = true;
      }
      std::size_t rhs = i + 1;
      if (rhs < toks.size() && toks[rhs].kind == TokenKind::kPunct) {
        const std::string_view sign = ctx.text(toks[rhs]);
        if (sign == "-" || sign == "+") ++rhs;  // unary sign
      }
      if (rhs < toks.size() && toks[rhs].kind == TokenKind::kNumber &&
          toks[rhs].is_float_literal) {
        floaty = true;
      }
      if (!floaty || ctx.in_approved_helper(i)) continue;
      report(out, name(), ctx, toks[i],
             "floating-point " + std::string(op) +
                 " comparison; use approx_eq(...) for tolerance or exactly_zero/"
                 "exactly_equal (core/approx.hpp) for intentional exact compares");
    }
  }
};

// ---------------------------------------------------------------------------
// unordered-iteration: iterating an unordered associative container in a
// deterministic subsystem makes accumulation order (and therefore floating-
// point results) depend on hash seeds and load factors. PR 3's error-band
// work requires bitwise-identical verdicts across runs; collect into a
// vector and sort, or use std::map, before folding.
class UnorderedIterationRule : public Rule {
 public:
  std::string_view name() const override { return "unordered-iteration"; }
  std::string_view description() const override {
    return "no iteration over unordered_map/unordered_set in deterministic "
           "subsystems (checker/numeric/linalg/core/graph/parallel/oracle): "
           "iteration order is hash-dependent, breaking reproducibility";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!ctx.in_hot_path()) return;
    const auto& names = ctx.unordered_names();
    if (names.empty()) return;
    const auto& toks = ctx.tokens();

    auto is_unordered_ident = [&](std::size_t k) {
      return toks[k].kind == TokenKind::kIdentifier &&
             names.count(std::string(ctx.text(toks[k]))) > 0;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string_view t = ctx.text(toks[i]);
      // Range-for whose range expression names an unordered container.
      if (toks[i].kind == TokenKind::kIdentifier && t == "for" && i + 1 < toks.size() &&
          ctx.text(toks[i + 1]) == "(") {
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (toks[j].kind != TokenKind::kPunct) continue;
          const std::string_view w = ctx.text(toks[j]);
          if (w == "(") ++depth;
          if (w == ")") {
            if (--depth == 0) {
              close = j;
              break;
            }
          }
          if (w == ":" && depth == 1 && colon == 0) colon = j;
          if (w == ";" && depth == 1) break;  // classic for, not range-for
        }
        if (colon != 0 && close != 0) {
          for (std::size_t k = colon + 1; k < close; ++k) {
            if (is_unordered_ident(k)) {
              report(out, name(), ctx, toks[i],
                     "range-for over unordered container '" +
                         std::string(ctx.text(toks[k])) +
                         "'; iteration order is non-deterministic — sort into a "
                         "vector (or use std::map) before accumulating");
              break;
            }
          }
        }
        continue;
      }
      // Explicit iterator walk: container.begin()/end()/cbegin()/... .
      if (is_unordered_ident(i) && i + 2 < toks.size() && ctx.text(toks[i + 1]) == "." &&
          toks[i + 2].kind == TokenKind::kIdentifier) {
        static constexpr std::array<std::string_view, 6> kIter = {
            "begin", "end", "cbegin", "cend", "rbegin", "rend"};
        const std::string_view m = ctx.text(toks[i + 2]);
        if (std::find(kIter.begin(), kIter.end(), m) != kIter.end()) {
          report(out, name(), ctx, toks[i],
                 "iterator over unordered container '" + std::string(t) +
                     "' (." + std::string(m) +
                     "()); iteration order is non-deterministic in a "
                     "deterministic subsystem");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// unsafe-libm: libc/libm entry points that mutate hidden global state. The
// thread pool evaluates Poisson masses concurrently; std::lgamma writes
// `signgam` (the PR 1 data race), strtok keeps a static cursor, rand() a
// hidden seed. Reentrant or C++ replacements exist for each.
class UnsafeLibmRule : public Rule {
 public:
  std::string_view name() const override { return "unsafe-libm"; }
  std::string_view description() const override {
    return "no thread-unsafe libc/libm calls (lgamma, strtok, rand, ...): they "
           "mutate hidden global state raced by the thread pool; use lgamma_r, "
           "strtok_r, <random>";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    static const std::map<std::string_view, std::string_view> kBanned = {
        {"lgamma", "writes the global signgam; use lgamma_r (see numeric/poisson.cpp)"},
        {"lgammaf", "writes the global signgam; use lgamma_r"},
        {"lgammal", "writes the global signgam; use lgamma_r"},
        {"strtok", "keeps a static cursor; use strtok_r or std::string_view parsing"},
        {"rand", "hidden global seed, not thread-safe; use <random> engines"},
        {"srand", "hidden global seed, not thread-safe; use <random> engines"},
        {"drand48", "hidden global state; use <random> engines"},
        {"lrand48", "hidden global state; use <random> engines"},
        {"mrand48", "hidden global state; use <random> engines"},
        {"gmtime", "returns a pointer to static storage; use gmtime_r"},
        {"localtime", "returns a pointer to static storage; use localtime_r"},
        {"asctime", "returns a pointer to static storage; use strftime"},
        {"ctime", "returns a pointer to static storage; use strftime"},
    };
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const auto hit = kBanned.find(ctx.text(toks[i]));
      if (hit == kBanned.end()) continue;
      if (ctx.text(toks[i + 1]) != "(") continue;  // only calls, not mentions
      report(out, name(), ctx, toks[i],
             "call to thread-unsafe '" + std::string(hit->first) + "': " +
                 std::string(hit->second));
    }
  }
};

// ---------------------------------------------------------------------------
// float-narrowing: every probability, rate, and reward in this codebase is a
// double; introducing `float` anywhere narrows silently at an interface
// boundary sooner or later (and the error-band layer's interval arithmetic
// assumes double precision throughout).
class FloatNarrowingRule : public Rule {
 public:
  std::string_view name() const override { return "float-narrowing"; }
  std::string_view description() const override {
    return "no `float` in reward/probability code: the project convention is "
           "double end-to-end; float narrows silently and breaks the error-band "
           "guarantees";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier || ctx.text(toks[i]) != "float") continue;
      report(out, name(), ctx, toks[i],
             "`float` type used; the project numeric convention is double "
             "end-to-end (use double, or suppress with justification)");
    }
  }
};

// ---------------------------------------------------------------------------
// naked-new: manual new/delete invites leaks on the exception paths the
// checker throws through (NodeBudgetError, SpecError). Use containers,
// make_unique/make_shared, or an arena.
class NakedNewRule : public Rule {
 public:
  std::string_view name() const override { return "naked-new"; }
  std::string_view description() const override {
    return "no naked new/delete: the checker unwinds through exceptions "
           "(NodeBudgetError et al.); use containers or std::make_unique";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string_view t = ctx.text(toks[i]);
      if (t != "new" && t != "delete") continue;
      // `= delete;` / `= delete(` declarations are not deallocations.
      if (t == "delete" && i > 0 && ctx.text(toks[i - 1]) == "=") {
        if (i + 1 >= toks.size() || ctx.text(toks[i + 1]) == ";" ||
            ctx.text(toks[i + 1]) == "(") {
          continue;
        }
      }
      // operator new/delete declarations.
      if (i > 0 && ctx.text(toks[i - 1]) == "operator") continue;
      report(out, name(), ctx, toks[i],
             "naked `" + std::string(t) +
                 "`; use std::vector/std::make_unique so exception unwinding "
                 "cannot leak");
    }
  }
};

// ---------------------------------------------------------------------------
// solver-stats: every iterative solver entry point must be observable. A
// solver function (name contains "solve") with a loop but no obs::
// instrumentation silently drops out of --stats output and the
// BENCH_*_stats.json regression baselines.
class SolverStatsRule : public Rule {
 public:
  std::string_view name() const override { return "solver-stats"; }
  std::string_view description() const override {
    return "iterative solver entry points (functions named *solve*) must carry "
           "obs:: instrumentation (ScopedTimer/counter_add) so --stats and the "
           "bench baselines see them";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (ctx.tree() != Tree::kSrc) return;
    const auto& toks = ctx.tokens();
    for (const FunctionSpan& f : ctx.functions()) {
      std::string lowered = f.name;
      std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (lowered.find("solve") == std::string::npos) continue;
      bool has_loop = false;
      bool has_obs = false;
      for (std::size_t i = f.open_brace; i <= f.close_brace && i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::kIdentifier) continue;
        const std::string_view t = ctx.text(toks[i]);
        if (t == "for" || t == "while") has_loop = true;
        if (t == "obs" || t == "counter_add" || t == "ScopedTimer") has_obs = true;
      }
      if (has_loop && !has_obs) {
        report(out, name(), ctx, toks[f.open_brace],
               "solver '" + f.name +
                   "' loops without obs:: instrumentation; add "
                   "obs::ScopedTimer/obs::counter_add (see linalg/gauss_seidel.cpp)");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// endl: std::endl flushes; in solver/bench loops that turns buffered output
// into one syscall per line. '\n' expresses the newline without the flush.
class EndlRule : public Rule {
 public:
  std::string_view name() const override { return "endl"; }
  std::string_view description() const override {
    return "no std::endl: it flushes on every use; write '\\n' and flush "
           "explicitly where needed";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier || ctx.text(t) != "endl") continue;
      report(out, name(), ctx, t, "std::endl flushes the stream; use '\\n'");
      // Autofix: rewrite `std::endl` / `::endl` / `endl` to the literal '\n'.
      std::size_t start = t.offset;
      if (i >= 1 && ctx.text(toks[i - 1]) == "::") {
        start = toks[i - 1].offset;
        if (i >= 2 && ctx.text(toks[i - 2]) == "std") start = toks[i - 2].offset;
      }
      out.back().fixes.push_back(FixEdit{start, t.offset + t.length - start, "'\\n'"});
    }
  }
};

// ---------------------------------------------------------------------------
// banned-identifier: a curated list of calls with superior project-approved
// replacements. Each entry says why and what to use instead.
class BannedIdentifierRule : public Rule {
 public:
  std::string_view name() const override { return "banned-identifier"; }
  std::string_view description() const override {
    return "banned identifiers with mandated replacements (sprintf->snprintf, "
           "atof->strtod, unqualified abs->std::abs, ...)";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    static const std::map<std::string_view, std::string_view> kBanned = {
        {"sprintf", "unbounded write; use snprintf or std::string"},
        {"strcpy", "unbounded write; use std::string"},
        {"strcat", "unbounded write; use std::string"},
        {"gets", "unbounded read; use std::getline"},
        {"atof", "silent failure on garbage; use strtod or the io/ helpers"},
        {"atoi", "silent failure on garbage; use strtol or the io/ helpers"},
        {"atol", "silent failure on garbage; use strtol or the io/ helpers"},
        {"tmpnam", "filename race; use mkstemp"},
        {"random_shuffle", "removed in C++17; use std::shuffle"},
        {"setjmp", "skips destructors; use exceptions"},
        {"longjmp", "skips destructors; use exceptions"},
    };
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::string_view t = ctx.text(toks[i]);
      if (ctx.text(toks[i + 1]) != "(") continue;
      const auto hit = kBanned.find(t);
      if (hit != kBanned.end()) {
        report(out, name(), ctx, toks[i],
               "banned call '" + std::string(t) + "': " + std::string(hit->second));
        continue;
      }
      // Unqualified abs( truncates doubles to int (the <cstdlib> overload);
      // std::abs resolves the floating overloads from <cmath>.
      if (t == "abs" && (i == 0 || ctx.text(toks[i - 1]) != "::")) {
        report(out, name(), ctx, toks[i],
               "unqualified 'abs' call binds the int overload and truncates "
               "doubles; use std::abs or std::fabs");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// pragma-once: every header must start its preprocessor life with #pragma
// once; a missing guard turns an innocent double-include into ODR soup.
class PragmaOnceRule : public Rule {
 public:
  std::string_view name() const override { return "pragma-once"; }
  std::string_view description() const override {
    return "headers must contain #pragma once";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!ctx.is_header()) return;
    for (const Token& t : ctx.tokens()) {
      if (t.kind != TokenKind::kPreprocessor) continue;
      const std::string_view text = ctx.text(t);
      if (text.find("pragma") != std::string_view::npos &&
          text.find("once") != std::string_view::npos) {
        return;
      }
    }
    out.push_back(Diagnostic{std::string(name()), ctx.path(), 1, 1,
                             "header is missing #pragma once", {}});
    // Autofix: prepend the guard. Inserting at offset 0 keeps the edit
    // position-independent of comments and whitespace.
    out.back().fixes.push_back(FixEdit{0, 0, "#pragma once\n"});
  }
};

// ---------------------------------------------------------------------------
// reserved-identifier: names starting with _[A-Z] or containing __ are
// reserved for the implementation ([lex.name]); colliding with a libc macro
// is undefined behavior that UBSan cannot see.
class ReservedIdentifierRule : public Rule {
 public:
  std::string_view name() const override { return "reserved-identifier"; }
  std::string_view description() const override {
    return "no identifiers reserved for the implementation (leading _Upper or "
           "any __)";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    for (const Token& t : ctx.tokens()) {
      if (t.kind != TokenKind::kIdentifier) continue;
      const std::string_view text = ctx.text(t);
      const bool double_underscore = text.find("__") != std::string_view::npos;
      const bool underscore_upper =
          text.size() >= 2 && text[0] == '_' && std::isupper(static_cast<unsigned char>(text[1]));
      if (double_underscore || underscore_upper) {
        report(out, name(), ctx, t,
               "identifier '" + std::string(text) +
                   "' is reserved for the implementation ([lex.name]/3)");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// simd-hygiene: raw vector machinery is confined to src/core/simd.hpp (the
// portable DoubleVec layer). Anywhere else, `vector_size` attributes,
// <immintrin.h>-family includes, _mm* intrinsics, or `#pragma omp simd`
// fork the scalar and vector code paths at the call site — exactly what the
// bitwise-determinism contract forbids. Kernels use the simd.hpp helpers so
// one source of truth serves every platform.
class SimdHygieneRule : public Rule {
 public:
  std::string_view name() const override { return "simd-hygiene"; }
  std::string_view description() const override {
    return "raw SIMD machinery (vector_size attributes, <immintrin.h>-family "
           "includes, _mm* intrinsics, #pragma omp simd) is confined to "
           "src/core/simd.hpp; use the DoubleVec helpers everywhere else";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    // The one sanctioned home of raw vector machinery.
    if (ctx.path().ends_with("core/simd.hpp")) return;
    static constexpr std::array<std::string_view, 7> kIntrinsicHeaders = {
        "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
        "pmmintrin.h", "smmintrin.h", "arm_neon.h"};
    const auto& toks = ctx.tokens();
    for (const Token& t : toks) {
      if (t.kind == TokenKind::kPreprocessor) {
        const std::string_view text = ctx.text(t);
        if (text.find("include") != std::string_view::npos) {
          for (const std::string_view header : kIntrinsicHeaders) {
            if (text.find(header) != std::string_view::npos) {
              report(out, name(), ctx, t,
                     "intrinsic header <" + std::string(header) +
                         "> included outside src/core/simd.hpp; use the "
                         "DoubleVec helpers");
              break;
            }
          }
        } else if (text.find("pragma") != std::string_view::npos &&
                   text.find("omp") != std::string_view::npos &&
                   text.find("simd") != std::string_view::npos) {
          report(out, name(), ctx, t,
                 "`#pragma omp simd` outside src/core/simd.hpp; vectorization "
                 "lives behind the DoubleVec helpers");
        }
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      const std::string_view text = ctx.text(t);
      const bool intrinsic = text.starts_with("_mm_") || text.starts_with("_mm256_") ||
                             text.starts_with("_mm512_");
      const bool vector_attr = text == "vector_size";
      if (intrinsic || vector_attr) {
        report(out, name(), ctx, t,
               "raw SIMD spelling '" + std::string(text) +
                   "' outside src/core/simd.hpp; use the DoubleVec helpers so "
                   "scalar and vector builds share one source of truth");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// dangling-cache-reference: the PR 8 bug class. TransformCache::absorbing
// originally returned `const Mrm&` into an LRU-evicted map — any later insert
// could erase the referent while a caller still held the reference. The rule
// reads the flow IR: in src/, a method of a class with an eviction path
// (erase/pop on a member container, or an evict*/trim* method) must not
// return a raw reference or pointer whose return expression reaches a member
// container — directly, or through a local derived from find()/begin()/
// emplace() on one.
class DanglingCacheReferenceRule : public Rule {
 public:
  std::string_view name() const override { return "dangling-cache-reference"; }
  std::string_view description() const override {
    return "methods of classes with an eviction path (erase/pop/evict on a "
           "member container) must not return references/pointers into that "
           "container; return by value or shared_ptr (see core/transform.hpp)";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (ctx.tree() != Tree::kSrc) return;
    const FileIr& ir = ctx.ir();
    if (ir.eviction_classes.empty()) return;
    const auto& toks = ctx.tokens();

    static constexpr std::array<std::string_view, 7> kDeriving = {
        "find", "begin", "at", "emplace", "try_emplace", "insert", "lower_bound"};

    for (const MethodIr& method : ir.methods) {
      if (!method.returns_ref && !method.returns_ptr) continue;
      if (!ir.eviction_classes.count(method.class_name)) continue;

      // Locals derived from container lookups inside this body: `auto it =
      // entries_.find(key)` makes `it` (and structured bindings likewise)
      // carry container aliasing.
      std::set<std::string> derived;
      for (std::size_t i = method.open_brace; i + 3 < method.close_brace && i < toks.size();
           ++i) {
        if (toks[i].kind != TokenKind::kIdentifier ||
            !ir.container_members.count(std::string(ctx.text(toks[i])))) {
          continue;
        }
        if (ctx.text(toks[i + 1]) != ".") continue;
        const std::string_view call = ctx.text(toks[i + 2]);
        if (toks[i + 2].kind != TokenKind::kIdentifier ||
            std::find(kDeriving.begin(), kDeriving.end(), call) == kDeriving.end() ||
            i + 3 >= toks.size() || ctx.text(toks[i + 3]) != "(") {
          continue;
        }
        // Walk back across `=` to the declared name(s).
        std::size_t k = i;
        while (k > method.open_brace && ctx.text(toks[k - 1]) != "=" &&
               ctx.text(toks[k - 1]) != ";" && ctx.text(toks[k - 1]) != "{") {
          --k;
        }
        if (k == method.open_brace || ctx.text(toks[k - 1]) != "=") continue;
        for (std::size_t b = k - 1; b-- > method.open_brace;) {
          const std::string_view w = ctx.text(toks[b]);
          if (toks[b].kind == TokenKind::kIdentifier) {
            if (w != "auto" && w != "const") derived.insert(std::string(w));
            if (w == "auto" || w == "const") break;
          } else if (w != "[" && w != "]" && w != "," && w != "&" && w != "*") {
            break;
          }
        }
      }

      for (std::size_t i = method.open_brace; i < method.close_brace && i < toks.size();
           ++i) {
        if (toks[i].kind != TokenKind::kIdentifier || ctx.text(toks[i]) != "return") continue;
        for (std::size_t j = i + 1; j < method.close_brace && ctx.text(toks[j]) != ";"; ++j) {
          if (toks[j].kind != TokenKind::kIdentifier) continue;
          const std::string word(ctx.text(toks[j]));
          const bool direct = ir.container_members.count(word) > 0;
          if (direct || derived.count(word)) {
            report(out, name(), ctx, toks[i],
                   "'" + method.class_name + "::" + method.name + "' returns a " +
                       (method.returns_ptr ? std::string("pointer") : std::string("reference")) +
                       (direct ? " into member container '" + word + "'"
                               : " through '" + word +
                                     "', a local derived from a member-container lookup,") +
                       " while the class has an eviction path; the referent can "
                       "be erased under the caller — return by value or "
                       "std::shared_ptr (the PR 8 TransformCache bug)");
            i = j;
            break;
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// lock-hygiene: members annotated `// lint:guarded_by(<mutex>)` (on the
// declaration line or the comment line above it, header annotations included
// via the companion mechanism) may only be touched inside a lock_guard/
// unique_lock/scoped_lock/shared_lock scope naming that mutex. Functions
// whose name ends in `_locked` are exempt — the project convention for
// helpers documented to require the lock already held.
class LockHygieneRule : public Rule {
 public:
  std::string_view name() const override { return "lock-hygiene"; }
  std::string_view description() const override {
    return "members annotated lint:guarded_by(<mutex>) must only be accessed "
           "under a lock_guard/unique_lock/scoped_lock on that mutex "
           "(helpers named *_locked are exempt)";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    const FileIr& ir = ctx.ir();
    if (ir.guarded_members.empty()) return;
    const auto& toks = ctx.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const auto guarded = ir.guarded_members.find(std::string(ctx.text(toks[i])));
      if (guarded == ir.guarded_members.end()) continue;
      // Member access through another object (`other.queue_`) or a qualifier
      // is not an access to *this* instance's member.
      if (i > 0) {
        const std::string_view before = ctx.text(toks[i - 1]);
        if (before == "." || before == "->" || before == "::") continue;
      }
      // Only accesses inside a function body count: declarations and default
      // member initializers live outside every span.
      const auto enclosing = ctx.enclosing_functions(i);
      if (enclosing.empty()) continue;
      bool exempt = false;
      for (const std::string& fn : enclosing) {
        if (fn.size() > 7 && fn.rfind("_locked") == fn.size() - 7) exempt = true;
      }
      if (exempt) continue;
      if (ir.covered_by_lock(i, guarded->second)) continue;
      report(out, name(), ctx, toks[i],
             "guarded member '" + guarded->first + "' accessed outside a lock on '" +
                 guarded->second +
                 "' (lint:guarded_by); take std::lock_guard/std::unique_lock "
                 "first, or move the access into a *_locked helper");
    }
  }
};

// ---------------------------------------------------------------------------
// syscall-hygiene: the daemon retrofits of PR 7/8, mechanized. In files that
// include a socket header: every raw `::send` must pass MSG_NOSIGNAL (a hung-
// up peer must surface as EPIPE, not a process-killing SIGPIPE), and every
// raw `::read`/`::recv`/`::accept` must sit in a function that handles EINTR
// (a stray signal must not be misread as connection loss).
class SyscallHygieneRule : public Rule {
 public:
  std::string_view name() const override { return "syscall-hygiene"; }
  std::string_view description() const override {
    return "in networked code (socket headers included): ::send must pass "
           "MSG_NOSIGNAL, and ::read/::recv/::accept must sit in a function "
           "with an EINTR retry";
  }
  void check(const FileContext& ctx, std::vector<Diagnostic>& out) const override {
    if (ctx.tree() != Tree::kSrc) return;
    const FileIr& ir = ctx.ir();
    if (!ir.networked) return;
    const auto& toks = ctx.tokens();
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      if (ctx.text(toks[i - 1]) != "::") continue;
      // Require the *global* qualifier: `obj::send` / `Type::read` have an
      // identifier (or template tail) before the `::` — but keywords like
      // `return ::read(...)` still start a global-qualified expression.
      if (i >= 2) {
        const std::string_view before = ctx.text(toks[i - 2]);
        static constexpr std::array<std::string_view, 7> kExprKeywords = {
            "return", "throw", "case", "else", "do", "co_return", "co_yield"};
        const bool keyword = std::find(kExprKeywords.begin(), kExprKeywords.end(),
                                       before) != kExprKeywords.end();
        if (!keyword && (toks[i - 2].kind == TokenKind::kIdentifier || before == ">" ||
                         before == ")")) {
          continue;
        }
      }
      if (ctx.text(toks[i + 1]) != "(") continue;
      const std::string_view call = ctx.text(toks[i]);
      if (call == "send") {
        bool has_nosignal = false;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          if (toks[j].kind == TokenKind::kIdentifier &&
              ctx.text(toks[j]) == "MSG_NOSIGNAL") {
            has_nosignal = true;
          }
          if (toks[j].kind != TokenKind::kPunct) continue;
          const std::string_view w = ctx.text(toks[j]);
          if (w == "(") ++depth;
          if (w == ")" && --depth == 0) break;
        }
        if (!has_nosignal) {
          report(out, name(), ctx, toks[i],
                 "::send without MSG_NOSIGNAL: a peer that hung up raises "
                 "SIGPIPE and kills the daemon; pass MSG_NOSIGNAL and handle "
                 "the EPIPE return instead");
        }
        continue;
      }
      if (call != "read" && call != "recv" && call != "accept") continue;
      // The enclosing function must mention EINTR (an `errno == EINTR`
      // retry). Innermost span wins; free-standing calls fall back to a
      // whole-file search.
      std::size_t begin = 0;
      std::size_t end = toks.size();
      for (const FunctionSpan& f : ctx.functions()) {
        if (f.open_brace <= i && i <= f.close_brace) {
          begin = f.open_brace;
          end = f.close_brace;
        }
      }
      bool has_eintr = false;
      for (std::size_t j = begin; j <= end && j < toks.size(); ++j) {
        if (toks[j].kind == TokenKind::kIdentifier && ctx.text(toks[j]) == "EINTR") {
          has_eintr = true;
          break;
        }
      }
      if (!has_eintr) {
        report(out, name(), ctx, toks[i],
               "::" + std::string(call) +
                   " without an EINTR retry in the enclosing function: a stray "
                   "signal makes the call fail spuriously and gets misread as "
                   "connection loss; check errno == EINTR and retry");
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<FloatEqualityRule>());
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<UnsafeLibmRule>());
  rules.push_back(std::make_unique<FloatNarrowingRule>());
  rules.push_back(std::make_unique<NakedNewRule>());
  rules.push_back(std::make_unique<SolverStatsRule>());
  rules.push_back(std::make_unique<EndlRule>());
  rules.push_back(std::make_unique<BannedIdentifierRule>());
  rules.push_back(std::make_unique<PragmaOnceRule>());
  rules.push_back(std::make_unique<ReservedIdentifierRule>());
  rules.push_back(std::make_unique<SimdHygieneRule>());
  rules.push_back(std::make_unique<DanglingCacheReferenceRule>());
  rules.push_back(std::make_unique<LockHygieneRule>());
  rules.push_back(std::make_unique<SyscallHygieneRule>());
  return rules;
}

}  // namespace csrlmrm::lint
