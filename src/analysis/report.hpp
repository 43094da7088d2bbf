// Renderers for AnalysisResult: text (terminal), HTML (a self-contained
// SCOPE-style page with per-series sparkline tables, regression
// annotations, and Extra-P fits), and JSON (machine-readable, for CI
// gates). All three are pure functions of the result — no clocks, no
// locale, doubles printed with %.17g — so identical analyses render
// byte-identical reports.
#pragma once

#include <string>
#include <vector>

namespace benchpark::analysis {

struct AnalysisResult;

/// Unicode block sparkline of a series ("▁▂▄▆█"): the minimum maps to
/// the lowest block, the maximum to the highest; a flat series is all
/// lowest blocks.
[[nodiscard]] std::string sparkline(const std::vector<double>& values);

[[nodiscard]] std::string render_text_report(const AnalysisResult& result);
[[nodiscard]] std::string render_html_report(const AnalysisResult& result);
[[nodiscard]] std::string render_json_report(const AnalysisResult& result);

}  // namespace benchpark::analysis
