#include "src/analysis/fom.hpp"

#include <locale>
#include <regex>

#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::analysis {

namespace {

// libstdc++'s classic-locale ctype fills its narrow/widen caches lazily
// per character, and std::regex construction/search exercises them.
// Fill both tables during static init (single-threaded) so regexes
// compiled on pool workers — run_all success criteria, batch FOM
// extraction — only ever read the caches.
const bool ctype_caches_warmed = [] {
  const auto& ct = std::use_facet<std::ctype<char>>(std::locale::classic());
  for (int c = 0; c < 256; ++c) {
    (void)ct.narrow(static_cast<char>(c), 0);
    (void)ct.widen(static_cast<char>(c));
  }
  return true;
}();

std::regex compile(const std::string& pattern, const std::string& what) {
  try {
    return std::regex(pattern, std::regex::ECMAScript);
  } catch (const std::regex_error& e) {
    throw Error("invalid " + what + " regex '" + pattern + "': " + e.what());
  }
}

}  // namespace

std::optional<FomValue> extract_fom(const FomSpec& spec,
                                    const std::string& output) {
  auto re = compile(spec.regex, "figure-of-merit");
  std::smatch match;
  if (!std::regex_search(output, match, re)) return std::nullopt;
  FomValue value;
  value.name = spec.name;
  value.units = spec.units;
  // Group 1 when present, else the whole match (string-valued FOMs like
  // "Kernel done" in Figure 8).
  value.raw = match.size() > 1 && match[1].matched ? match[1].str()
                                                   : match[0].str();
  if (support::looks_like_double(value.raw)) {
    value.value = support::parse_double(value.raw);
    value.numeric = true;
  }
  return value;
}

std::vector<FomValue> extract_foms(const std::vector<FomSpec>& specs,
                                   const std::string& output) {
  std::vector<FomValue> values;
  for (const auto& spec : specs) {
    if (auto v = extract_fom(spec, output)) values.push_back(std::move(*v));
  }
  return values;
}

bool evaluate_success(const std::vector<SuccessCriterion>& criteria,
                      const std::string& output) {
  for (const auto& c : criteria) {
    auto re = compile(c.match, "success-criterion");
    if (!std::regex_search(output, re)) return false;
  }
  return true;
}

std::vector<FomExtractResult> extract_foms_batch(
    const std::vector<FomExtractTask>& tasks, int threads) {
  std::vector<FomExtractResult> results(tasks.size());
  auto extract_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto& task = tasks[i];
      if (!task.output) continue;
      FomExtractResult& r = results[i];
      r.extracted = true;
      if (task.specs) r.foms = extract_foms(*task.specs, *task.output);
      if (task.criteria) {
        r.success = evaluate_success(*task.criteria, *task.output);
      }
    }
  };
  support::parallel_for(
      tasks.size(),
      threads == 0 ? support::ThreadPool::default_threads() : threads,
      extract_range);
  return results;
}

}  // namespace benchpark::analysis
