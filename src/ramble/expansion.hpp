// Variable expansion: Ramble's `{var}` templating (Figures 8, 10, 12, 13).
//
// Expansion is recursive — values may reference other variables
// ("mpi_command: srun -N {n_nodes} -n {n_ranks}") — and supports the
// integer arithmetic Ramble allows in expansions ("{processes_per_node} *
// {n_nodes}"). Unknown variables and reference cycles raise
// ExperimentError with the offending name.
//
// Templates are compiled once into a segment list (CompiledTemplate) and
// memoized in the process-wide TemplateCache keyed by the template
// text, so expanding the same template across a large experiment matrix
// is a segment walk with no re-tokenizing. `expand()` stays the thin
// wrapper everyone calls; `expand_uncached()` bypasses the cache (used by
// RunRequest{use_cache=false} and the cold-path benchmarks).
//
// Placeholders use balanced-brace matching, so `{ {n} * 2 }` nests (the
// inner template expands first, then the result is looked up / evaluated)
// and `{{`/`}}` stay Jinja-style literal-brace escapes everywhere,
// including inside placeholder bodies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/snapshot_cache.hpp"

namespace benchpark::support {
class Arena;
}

namespace benchpark::ramble {

/// Transparent comparator so expansion can look names up by string_view
/// without materializing a key (nested `{p{suffix}}` names are built in
/// arena scratch).
using VariableMap = std::map<std::string, std::string, std::less<>>;

/// A template tokenized once into literal / variable / arithmetic
/// segments. Immutable after construction; safe to share across threads
/// (expansion only reads). Construction throws ExperimentError for
/// unbalanced '{' — exactly the error `expand()` always raised.
class CompiledTemplate {
public:
  explicit CompiledTemplate(std::string_view text);

  /// Append the expansion of this template against `vars` to `out`.
  /// `use_cache` controls whether *value* templates (a variable's text,
  /// which is itself a template) go through the process-wide cache.
  /// Within one call, each variable's fully-expanded value is computed
  /// once and memoized, so a name referenced N times costs one recursive
  /// expansion plus N-1 local hits (an integer-id scan, names interned at
  /// compile time).
  void expand_into(std::string& out, const VariableMap& vars,
                   bool use_cache) const;

  /// Same, but with all per-expansion scratch (the memo table, value
  /// buffers, nested-name buffers) carved from `arena`. A warmed arena
  /// plus an `out` with sufficient capacity makes the whole call heap-
  /// allocation-free — the run engine threads one arena per worker and
  /// reset()s it between experiments. The arena must not be shared
  /// across threads; arena-backed memory dies at the caller's reset().
  void expand_into(std::string& out, const VariableMap& vars, bool use_cache,
                   support::Arena& arena) const;

  [[nodiscard]] std::string expand(const VariableMap& vars,
                                   bool use_cache = true) const;
  [[nodiscard]] std::string expand(const VariableMap& vars, bool use_cache,
                                   support::Arena& arena) const;

  [[nodiscard]] const std::string& source() const { return source_; }
  /// Placeholder segments ({...}); 0 means the template is pure literal.
  [[nodiscard]] std::size_t placeholder_count() const;
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

private:
  struct Segment {
    enum class Kind {
      kLiteral,   // raw bytes (escapes already folded: "{{" -> "{")
      kVariable,  // {name} — plain inner text, no nested braces
      kNested,    // {...} whose body is itself a template
    };
    Kind kind = Kind::kLiteral;
    /// kLiteral: the bytes; kVariable/kNested: the raw placeholder body
    /// (for lookups and error messages).
    std::string text;
    /// Process-wide interned id of `text` (kVariable only; 0 otherwise).
    /// Memo lookups compare this integer instead of hashing the name.
    std::uint32_t intern_id = 0;
    /// is_arithmetic(text) screen, precomputed (kVariable only).
    bool maybe_arith = false;
    /// Inline arithmetic pre-evaluated at compile time ({8 * 2} -> 16);
    /// only consulted after the variable lookup misses, so a literal
    /// "8 * 2" variable name still wins like it always did.
    std::optional<long long> folded;
    std::shared_ptr<const CompiledTemplate> inner;  // kNested body
  };

  /// Per-top-level-expansion memo: variable name -> fully expanded (and
  /// arithmetic-folded) value. A flat arena-backed vector keyed by
  /// interned id (with a name-bytes fallback for runtime-built nested
  /// names); values live in the arena. Defined in the .cpp.
  struct Memo;

  /// Recursion core, templated on the output buffer so the top level
  /// writes straight into the caller's std::string while inner scratch
  /// values build into arena-backed ArenaStrings (zero heap traffic on
  /// the warm path).
  template <typename Buf>
  void expand_impl(Buf& out, const VariableMap& vars, bool use_cache,
                   int depth, Memo& memo) const;
  /// Resolve one placeholder name against vars / arithmetic and append.
  template <typename Buf>
  void expand_name_impl(Buf& out, std::string_view name,
                        std::uint32_t name_id, const Segment& seg,
                        const VariableMap& vars, bool use_cache, int depth,
                        Memo& memo) const;

  std::string source_;
  std::vector<Segment> segments_;
  /// Set when the template has no placeholders: the fully-expanded value
  /// with the arithmetic-value fold already applied ("8 * 2" -> "16",
  /// "2023-01-01" kept literal). Lets a scalar variable's value append
  /// without re-screening on every experiment.
  std::optional<std::string> literal_value_;
};

/// Process-wide memo table: template text -> CompiledTemplate, an
/// instantiation of support::SnapshotCache ("ramble.template.*"
/// counters). The key is the exact source text, so the compiled form is a
/// pure function of the key and entries never go stale. What is the
/// template cache's own: compile on miss.
class TemplateCache
    : public support::SnapshotCache<std::shared_ptr<const CompiledTemplate>> {
public:
  TemplateCache() : SnapshotCache("ramble.template") {}

  /// The process-wide instance `expand()` consults.
  static TemplateCache& global();

  /// Fetch-or-compile (single-flight). Compile errors (unbalanced '{')
  /// propagate and nothing is cached, so a bad template throws on every
  /// call exactly like the uncompiled expander did.
  [[nodiscard]] std::shared_ptr<const CompiledTemplate> get(
      std::string_view text);
};

/// Expand every `{name}` in `text` against `vars`, recursively, then
/// evaluate arithmetic of the form `{expr}` where expr contains only
/// numbers and + - * / ( ). Compiles through the process-wide
/// TemplateCache.
std::string expand(std::string_view text, const VariableMap& vars);

/// Identical semantics to expand(), but never touches the template
/// cache (neither for `text` nor for variable values).
std::string expand_uncached(std::string_view text, const VariableMap& vars);

/// expand(), then parse as integer (for n_ranks etc.).
long long expand_int(std::string_view text, const VariableMap& vars);

/// Evaluate a purely arithmetic expression ("8 * 2"); throws
/// ExperimentError when malformed. Exposed for tests.
long long evaluate_arithmetic(std::string_view expr);

}  // namespace benchpark::ramble
