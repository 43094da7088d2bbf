#include "src/ramble/expansion.hpp"

#include <cctype>
#include <charconv>
#include <utility>

#include "src/support/arena.hpp"
#include "src/support/error.hpp"
#include "src/support/intern.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::ramble {

namespace {

/// Tiny recursive-descent evaluator: expr := term (('+'|'-') term)*;
/// term := factor (('*'|'/') factor)*; factor := number | '(' expr ')' |
/// '-' factor.
class Arith {
public:
  explicit Arith(std::string_view text) : text_(text) {}

  long long parse() {
    long long v = expr();
    skip_ws();
    if (pos_ != text_.size()) {
      throw ExperimentError("bad arithmetic: '" + std::string(text_) + "'");
    }
    return v;
  }

private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  long long expr() {
    long long v = term();
    while (true) {
      char c = peek();
      if (c == '+') {
        ++pos_;
        v += term();
      } else if (c == '-') {
        ++pos_;
        v -= term();
      } else {
        return v;
      }
    }
  }

  long long term() {
    long long v = factor();
    while (true) {
      char c = peek();
      if (c == '*') {
        ++pos_;
        v *= factor();
      } else if (c == '/') {
        ++pos_;
        long long d = factor();
        if (d == 0) throw ExperimentError("division by zero in expansion");
        v /= d;
      } else {
        return v;
      }
    }
  }

  long long factor() {
    char c = peek();
    if (c == '(') {
      ++pos_;
      long long v = expr();
      if (peek() != ')') {
        throw ExperimentError("unbalanced parentheses in '" +
                              std::string(text_) + "'");
      }
      ++pos_;
      return v;
    }
    if (c == '-') {
      ++pos_;
      return -factor();
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw ExperimentError("bad arithmetic: '" + std::string(text_) + "'");
    }
    std::size_t start = pos_;
    long long v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + (text_[pos_] - '0');
      ++pos_;
    }
    // Zero-padded numbers are not arithmetic literals: "01" here almost
    // always means a date component ("2023-01-01"), which must stay a
    // string, not evaluate to 2021.
    if (pos_ - start > 1 && text_[start] == '0') {
      throw ExperimentError("bad arithmetic: '" + std::string(text_) + "'");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool is_arithmetic(std::string_view expr) {
  if (expr.empty()) return false;
  bool has_digit = false;
  bool has_op = false;
  for (char c : expr) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      has_digit = true;
    } else if (c == '+' || c == '-' || c == '*' || c == '/' || c == '(' ||
               c == ')') {
      has_op = true;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return has_digit && has_op;  // a plain number needs no evaluation
}

/// Allocation-free integer append (the old path went through
/// std::to_string, one heap string per arithmetic evaluation). Works on
/// std::string and support::ArenaString alike.
template <typename Buf>
void append_int(Buf& out, long long v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

/// An escape pair ("{{" or "}}") at position i?
bool is_escape_pair(std::string_view text, std::size_t i) {
  return i + 1 < text.size() && text[i] == text[i + 1] &&
         (text[i] == '{' || text[i] == '}');
}

}  // namespace

// ------------------------------------------------------- CompiledTemplate

CompiledTemplate::CompiledTemplate(std::string_view text) : source_(text) {
  std::string literal;
  auto flush_literal = [&] {
    if (literal.empty()) return;
    Segment seg;
    seg.kind = Segment::Kind::kLiteral;
    seg.text = std::move(literal);
    segments_.push_back(std::move(seg));
    literal.clear();
  };

  std::size_t i = 0;
  bool pure_literal = true;
  while (i < text.size()) {
    // "{{" and "}}" escape literal braces (Jinja-style), so values can
    // contain JSON or shell syntax without tripping the expander.
    if (is_escape_pair(text, i)) {
      literal.push_back(text[i]);
      i += 2;
      continue;
    }
    if (text[i] != '{') {
      literal.push_back(text[i]);
      ++i;
      continue;
    }
    // Balanced-brace scan for the matching close. A '}' always closes
    // first — '{n}}}' reads as '{n}' + an escaped '}', exactly like the
    // old first-close scanner — while '{{' pairs are skipped so escapes
    // inside a body don't open a nesting level.
    std::size_t j = i + 1;
    int depth = 1;
    while (j < text.size()) {
      if (text[j] == '}') {
        if (--depth == 0) break;
        ++j;
        continue;
      }
      if (is_escape_pair(text, j)) {
        j += 2;
        continue;
      }
      if (text[j] == '{') ++depth;
      ++j;
    }
    if (j >= text.size()) {
      throw ExperimentError("unbalanced '{' in '" + source_ + "'");
    }
    flush_literal();
    pure_literal = false;

    std::string_view body = text.substr(i + 1, j - i - 1);
    Segment seg;
    seg.text = std::string(body);
    if (body.find('{') != std::string_view::npos ||
        body.find('}') != std::string_view::npos) {
      // The body is itself a template ("{p{suffix}}", "{ {n} * 2 }"):
      // expand it at runtime to produce the name being referenced.
      seg.kind = Segment::Kind::kNested;
      seg.inner = std::make_shared<const CompiledTemplate>(body);
    } else {
      seg.kind = Segment::Kind::kVariable;
      // Intern the name once at compile time: memo lookups during
      // expansion become integer-id compares instead of byte compares.
      seg.intern_id = support::intern(body);
      seg.maybe_arith = is_arithmetic(body);
      if (seg.maybe_arith) {
        // Pre-evaluate inline arithmetic ("{8 * 2}") at compile time.
        // Failures (zero-padded dates, division by zero) stay unfolded
        // and re-raise at expansion time, after the variable lookup has
        // had its chance — exactly the old evaluation order.
        try {
          seg.folded = Arith(body).parse();
        } catch (const ExperimentError&) {
        }
      }
    }
    segments_.push_back(std::move(seg));
    i = j + 1;
  }
  flush_literal();

  if (pure_literal) {
    // Precompute the form this template takes when used as a variable
    // *value*: fully expanded (trivially, it has no placeholders) with
    // the arithmetic-value screen applied once ("8 * 2" -> "16",
    // "2023-01-01" kept literal — zero-padded components don't parse).
    std::string value;
    for (const auto& seg : segments_) value += seg.text;
    if (is_arithmetic(value)) {
      try {
        long long v = Arith(value).parse();
        value.clear();
        append_int(value, v);
      } catch (const ExperimentError&) {
        // Not actually arithmetic (or not evaluable): keep the literal.
      }
    }
    literal_value_ = std::move(value);
  }
}

std::size_t CompiledTemplate::placeholder_count() const {
  std::size_t n = 0;
  for (const auto& seg : segments_) {
    if (seg.kind != Segment::Kind::kLiteral) ++n;
  }
  return n;
}

/// One top-level expansion's worth of resolved variables. A name that
/// appears N times in a template (experiment_name in a batch script,
/// say) is recursively expanded once; the other N-1 references append
/// the memoized bytes without touching the cache or the VariableMap.
///
/// Storage is a flat arena-backed vector scanned linearly: real templates
/// reference a handful of distinct names, so an integer-id scan beats a
/// hash table — and carving everything from the caller's arena keeps the
/// warm path heap-allocation-free. Entries whose name was interned at
/// template compile time match on id alone; runtime-built nested names
/// (id 0) fall back to a byte compare.
struct CompiledTemplate::Memo {
  struct Entry {
    std::uint32_t id = 0;    // interned name id; 0 = runtime-built name
    std::string_view name;   // stable bytes (VariableMap key storage)
    std::string_view value;  // arena bytes, live until the caller resets
  };

  explicit Memo(support::Arena& a) : arena(a), entries(a) {}

  support::Arena& arena;
  support::ArenaVector<Entry> entries;

  [[nodiscard]] const Entry* find(std::uint32_t id,
                                  std::string_view name) const {
    for (const Entry& e : entries) {
      if (id != 0 && e.id != 0) {
        if (e.id == id) return &e;  // ids are bijective with names
        continue;
      }
      if (e.name == name) return &e;
    }
    return nullptr;
  }
};

std::string CompiledTemplate::expand(const VariableMap& vars,
                                     bool use_cache) const {
  std::string out;
  out.reserve(source_.size());
  expand_into(out, vars, use_cache);
  return out;
}

std::string CompiledTemplate::expand(const VariableMap& vars, bool use_cache,
                                     support::Arena& arena) const {
  std::string out;
  out.reserve(source_.size());
  expand_into(out, vars, use_cache, arena);
  return out;
}

void CompiledTemplate::expand_into(std::string& out, const VariableMap& vars,
                                   bool use_cache) const {
  support::Arena arena;
  expand_into(out, vars, use_cache, arena);
}

void CompiledTemplate::expand_into(std::string& out, const VariableMap& vars,
                                   bool use_cache,
                                   support::Arena& arena) const {
  Memo memo(arena);
  expand_impl(out, vars, use_cache, 0, memo);
}

template <typename Buf>
void CompiledTemplate::expand_impl(Buf& out, const VariableMap& vars,
                                   bool use_cache, int depth,
                                   Memo& memo) const {
  if (depth > 32) {
    throw ExperimentError("expansion did not converge (cycle?) at '" +
                          source_ + "'");
  }
  for (const auto& seg : segments_) {
    switch (seg.kind) {
      case Segment::Kind::kLiteral:
        out.append(std::string_view(seg.text));
        break;
      case Segment::Kind::kVariable:
        expand_name_impl(out, seg.text, seg.intern_id, seg, vars, use_cache,
                         depth, memo);
        break;
      case Segment::Kind::kNested: {
        // The name itself is a template; build it in arena scratch.
        support::ArenaString name(memo.arena);
        seg.inner->expand_impl(name, vars, use_cache, depth + 1, memo);
        expand_name_impl(out, name.view(), /*name_id=*/0, seg, vars,
                         use_cache, depth, memo);
        break;
      }
    }
  }
}

template <typename Buf>
void CompiledTemplate::expand_name_impl(Buf& out, std::string_view name,
                                        std::uint32_t name_id,
                                        const Segment& seg,
                                        const VariableMap& vars,
                                        bool use_cache, int depth,
                                        Memo& memo) const {
  // The memo only ever holds names found in vars, so a hit here short-
  // circuits the std::map lookup too. Only successful expansions are
  // recorded, so cycles and undefined-variable errors inside a value
  // still raise every time.
  if (const Memo::Entry* hit = memo.find(name_id, name)) {
    out.append(hit->value);
    return;
  }
  auto it = vars.find(name);
  if (it != vars.end()) {
    // A variable's value may itself reference variables or be an
    // arithmetic expression (n_ranks = '{processes_per_node}*{n_nodes}').
    // is_arithmetic is only a screen; the value is evaluated only when
    // the whole string parses as arithmetic, so look-alikes such as
    // "2023-01-01" stay literal instead of becoming 2021.
    std::shared_ptr<const CompiledTemplate> cached;
    std::optional<CompiledTemplate> local;
    const CompiledTemplate* value_tmpl;
    if (use_cache) {
      cached = TemplateCache::global().get(it->second);
      value_tmpl = cached.get();
    } else {
      local.emplace(it->second);
      value_tmpl = &*local;
    }
    // The value is built in arena scratch (copied even for precomputed
    // literal values — the compiled template can be evicted from the
    // cache, so the memo must never alias its storage).
    support::ArenaString value(memo.arena);
    if (value_tmpl->literal_value_) {
      value.append(*value_tmpl->literal_value_);
    } else {
      value_tmpl->expand_impl(value, vars, use_cache, depth + 1, memo);
      if (is_arithmetic(value.view())) {
        try {
          long long v = Arith(value.view()).parse();
          value.clear();
          append_int(value, v);
        } catch (const ExperimentError&) {
          // Not actually arithmetic (or not evaluable): keep the literal.
        }
      }
    }
    out.append(value.view());
    Memo::Entry entry;
    entry.id = name_id;
    entry.name = it->first;  // the map's key storage outlives the call
    entry.value = value.view();
    memo.entries.push_back(entry);
    return;
  }
  if (seg.folded) {
    append_int(out, *seg.folded);
    return;
  }
  bool inline_arith = seg.kind == Segment::Kind::kNested
                          ? is_arithmetic(name)
                          : seg.maybe_arith;
  if (inline_arith) {
    append_int(out, Arith(name).parse());
    return;
  }
  throw ExperimentError("undefined variable '{" + std::string(name) +
                        "}' while expanding '" + source_ + "'");
}

// --------------------------------------------------------- TemplateCache

TemplateCache& TemplateCache::global() {
  static TemplateCache instance;
  return instance;
}

std::shared_ptr<const CompiledTemplate> TemplateCache::get(
    std::string_view text) {
  return get_or_insert(
      text, [&] { return std::make_shared<const CompiledTemplate>(text); });
}

// -------------------------------------------------------------- wrappers

long long evaluate_arithmetic(std::string_view expr) {
  return Arith(expr).parse();
}

std::string expand(std::string_view text, const VariableMap& vars) {
  auto compiled = TemplateCache::global().get(text);
  std::string out;
  out.reserve(text.size());
  compiled->expand_into(out, vars, /*use_cache=*/true);
  return out;
}

std::string expand_uncached(std::string_view text, const VariableMap& vars) {
  CompiledTemplate compiled(text);
  std::string out;
  out.reserve(text.size());
  compiled.expand_into(out, vars, /*use_cache=*/false);
  return out;
}

long long expand_int(std::string_view text, const VariableMap& vars) {
  auto expanded = expand(text, vars);
  try {
    return support::parse_int(expanded);
  } catch (const Error&) {
    if (is_arithmetic(expanded)) return evaluate_arithmetic(expanded);
    throw ExperimentError("'" + std::string(text) + "' expanded to '" +
                          expanded + "', not an integer");
  }
}

}  // namespace benchpark::ramble
