#include "src/analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "src/analysis/analysis.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::analysis {

namespace {

using support::format_double;

/// Full-precision double for JSON: round-trips exactly, so identical
/// analyses render byte-identical reports.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void json_escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  json_escape_into(out, s);
  out += '"';
  return out;
}

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::vector<double> successful_values(const SeriesReport& s) {
  std::vector<double> values;
  values.reserve(s.samples.size());
  for (const auto& sample : s.samples) {
    if (sample.success) values.push_back(sample.value);
  }
  return values;
}

std::string classification_json(const Classification& c) {
  std::string out = "{";
  out += "\"verdict\":" + json_str(verdict_name(c.verdict));
  out += ",\"value\":" + json_num(c.value);
  out += ",\"baseline_median\":" + json_num(c.baseline_median);
  out += ",\"noise_sigma\":" + json_num(c.noise_sigma);
  out += ",\"score\":" + json_num(c.score);
  out += ",\"confidence\":" + json_num(c.confidence);
  out += ",\"baseline_samples\":" + std::to_string(c.baseline_samples);
  out += "}";
  return out;
}

std::string bisection_json(const BisectResult& b) {
  std::string out = "{";
  out += "\"first_bad\":" + json_str(b.first_bad_hash);
  out += ",\"last_good\":" + json_str(b.last_good_hash);
  out += ",\"good_value\":" + json_num(b.good_value);
  out += ",\"bad_value\":" + json_num(b.bad_value);
  out += ",\"cutoff\":" + json_num(b.cutoff);
  out += ",\"replays\":" + std::to_string(b.replays);
  out += ",\"steps\":[";
  for (std::size_t i = 0; i < b.steps.size(); ++i) {
    if (i) out += ',';
    out += "{\"config\":" + json_str(b.steps[i].config_hash);
    out += ",\"value\":" + json_num(b.steps[i].value);
    out += std::string(",\"bad\":") + (b.steps[i].bad ? "true" : "false");
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  std::string out;
  for (double v : values) {
    int bucket = 0;
    if (hi > lo) {
      bucket = static_cast<int>((v - lo) / (hi - lo) * 7.999);
      bucket = std::clamp(bucket, 0, 7);
    }
    out += kBlocks[bucket];
  }
  return out;
}

std::string render_json_report(const AnalysisResult& result) {
  std::string out = "{\"schema\":\"benchpark-analysis-v1\"";

  const AnalysisStats& st = result.stats;
  out += ",\"summary\":{";
  out += "\"series\":" + std::to_string(st.series_scanned);
  out += ",\"samples\":" + std::to_string(st.samples_scanned);
  out += ",\"change_points\":" + std::to_string(st.change_points);
  out += ",\"regressions\":" + std::to_string(st.regressions);
  out += ",\"improvements\":" + std::to_string(st.improvements);
  out += ",\"noisy_series\":" + std::to_string(st.noisy_series);
  out += ",\"regressed_series\":" + std::to_string(result.regressed_series());
  out += ",\"bisections\":" + std::to_string(st.bisections);
  out += ",\"bisect_replays\":" + std::to_string(st.bisect_replays);
  out += ",\"rows_ingested\":" + std::to_string(st.rows_ingested);
  out += ",\"thicket_columns\":" + std::to_string(st.thicket_columns);
  out += ",\"fits\":" + std::to_string(st.fits);
  out += "}";

  out += ",\"series\":[";
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const SeriesReport& s = result.series[i];
    if (i) out += ',';
    out += "{\"benchmark\":" + json_str(s.key.benchmark);
    out += ",\"system\":" + json_str(s.key.system);
    out += ",\"experiment\":" + json_str(s.key.experiment);
    out += ",\"fom\":" + json_str(s.key.fom);
    out += ",\"units\":" + json_str(s.units);
    out += ",\"samples\":[";
    for (std::size_t j = 0; j < s.samples.size(); ++j) {
      const HistorySample& h = s.samples[j];
      if (j) out += ',';
      out += "{\"seq\":" + std::to_string(h.sequence);
      out += ",\"value\":" + json_num(h.value);
      out += ",\"config\":" + json_str(h.config_hash);
      out += std::string(",\"success\":") + (h.success ? "true" : "false");
      out += "}";
    }
    out += "]";
    out += ",\"latest\":";
    out += s.has_latest ? classification_json(s.latest) : "null";
    out += ",\"latest_error\":";
    out += s.latest_error.empty() ? "null" : json_str(s.latest_error);
    out += ",\"change_points\":[";
    for (std::size_t j = 0; j < s.change_points.size(); ++j) {
      const ChangePoint& p = s.change_points[j];
      if (j) out += ',';
      out += "{\"index\":" + std::to_string(p.index);
      out += ",\"sequence\":" + std::to_string(p.sequence);
      out += ",\"classification\":" + classification_json(p.classification);
      out += ",\"config\":" + json_str(p.config_hash);
      out += ",\"baseline_config\":" + json_str(p.baseline_config_hash);
      out += "}";
    }
    out += "]";
    out += ",\"bisection\":";
    out += s.bisected ? bisection_json(s.bisection) : "null";
    out += ",\"bisect_error\":";
    out += s.bisect_error.empty() ? "null" : json_str(s.bisect_error);
    out += "}";
  }
  out += "]";

  out += ",\"fits\":[";
  for (std::size_t i = 0; i < result.fits.size(); ++i) {
    const ScalingFit& f = result.fits[i];
    if (i) out += ',';
    out += "{\"benchmark\":" + json_str(f.benchmark);
    out += ",\"system\":" + json_str(f.system);
    out += ",\"fom\":" + json_str(f.fom);
    out += std::string(",\"ok\":") + (f.ok ? "true" : "false");
    if (f.ok) {
      out += ",\"model\":" + json_str(f.model.str());
      out += ",\"complexity\":" + json_str(f.model.complexity());
      out += ",\"r_squared\":" + json_num(f.model.r_squared);
    } else {
      out += ",\"error\":" + json_str(f.error);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string render_text_report(const AnalysisResult& result) {
  std::string out;
  const AnalysisStats& st = result.stats;
  out += "analysis: " + std::to_string(st.series_scanned) + " series, " +
         std::to_string(st.samples_scanned) + " samples, " +
         std::to_string(st.change_points) + " change point(s) (" +
         std::to_string(st.regressions) + " regression(s), " +
         std::to_string(st.improvements) + " improvement(s)), " +
         std::to_string(result.regressed_series()) +
         " series currently regressed\n";
  for (const SeriesReport& s : result.series) {
    out += "\n" + s.key.str();
    if (!s.units.empty()) out += " [" + s.units + "]";
    out += "  n=" + std::to_string(s.samples.size());
    auto values = successful_values(s);
    if (!values.empty()) out += "  " + sparkline(values);
    out += "\n";
    if (s.has_latest) {
      out += "  latest: " + std::string(verdict_name(s.latest.verdict)) +
             " value=" + format_double(s.latest.value) +
             " baseline=" + format_double(s.latest.baseline_median) +
             " score=" + format_double(s.latest.score, 3) +
             " confidence=" + format_double(s.latest.confidence, 3) + "\n";
    } else if (!s.latest_error.empty()) {
      out += "  latest: (" + s.latest_error + ")\n";
    }
    for (const ChangePoint& p : s.change_points) {
      out += "  " + std::string(verdict_name(p.classification.verdict)) +
             " at seq " + std::to_string(p.sequence) + ": " +
             format_double(p.classification.baseline_median) + " -> " +
             format_double(p.classification.value) + " (" +
             format_double(p.classification.score, 2) + " sigma)";
      if (!p.config_hash.empty()) out += " config " + p.config_hash;
      out += "\n";
    }
    if (s.bisected) {
      out += "  bisected: first bad config " + s.bisection.first_bad_hash +
             " (last good " + s.bisection.last_good_hash + ", " +
             std::to_string(s.bisection.replays) + " replay(s))\n";
    } else if (!s.bisect_error.empty()) {
      out += "  bisection: " + s.bisect_error + "\n";
    }
  }
  if (!result.fits.empty()) {
    out += "\nscaling fits:\n";
    for (const ScalingFit& f : result.fits) {
      out += "  " + f.benchmark + "/" + f.system + ":" + f.fom + "  ";
      if (f.ok) {
        out += f.model.str() + "  " + f.model.complexity() +
               "  R2=" + format_double(f.model.r_squared, 4) + "\n";
      } else {
        out += "(" + f.error + ")\n";
      }
    }
  }
  return out;
}

std::string render_html_report(const AnalysisResult& result) {
  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  out += "<title>Benchpark analysis</title>\n<style>\n";
  out += "body{font-family:system-ui,sans-serif;margin:2em;color:#222}\n";
  out += "table{border-collapse:collapse;margin:0.6em 0}\n";
  out += "th,td{border:1px solid #ccc;padding:0.25em 0.6em;"
         "text-align:left;font-size:0.92em}\n";
  out += "th{background:#f0f0f0}\n";
  out += ".spark{font-family:monospace;font-size:1.1em}\n";
  out += ".ok{color:#1a7f37}.regression{color:#b91c1c;font-weight:bold}\n";
  out += ".improvement{color:#1d4ed8}.noisy{color:#92400e}\n";
  out += ".hash{font-family:monospace;font-size:0.85em}\n";
  out += "summary{cursor:pointer}\n";
  out += "</style></head><body>\n";
  out += "<h1>Benchpark analysis</h1>\n";

  const AnalysisStats& st = result.stats;
  out += "<p>" + std::to_string(st.series_scanned) + " series &middot; " +
         std::to_string(st.samples_scanned) + " samples &middot; " +
         std::to_string(st.change_points) + " change points (<span "
         "class=\"regression\">" + std::to_string(st.regressions) +
         " regressions</span>, <span class=\"improvement\">" +
         std::to_string(st.improvements) + " improvements</span>) &middot; " +
         std::to_string(result.regressed_series()) +
         " series currently regressed</p>\n";

  out += "<h2>Series</h2>\n<table>\n<tr><th>series</th><th>units</th>"
         "<th>n</th><th>trend</th><th>latest</th><th>score</th>"
         "<th>change points</th><th>attribution</th></tr>\n";
  for (const SeriesReport& s : result.series) {
    out += "<tr><td>" + html_escape(s.key.str()) + "</td>";
    out += "<td>" + html_escape(s.units) + "</td>";
    out += "<td>" + std::to_string(s.samples.size()) + "</td>";
    auto values = successful_values(s);
    out += "<td class=\"spark\">" + sparkline(values) + "</td>";
    if (s.has_latest) {
      std::string v(verdict_name(s.latest.verdict));
      out += "<td class=\"" + v + "\">" + v + " " +
             html_escape(format_double(s.latest.value)) + "</td>";
      out += "<td>" + html_escape(format_double(s.latest.score, 2)) +
             "&sigma;</td>";
    } else {
      out += "<td>" + html_escape(s.latest_error) + "</td><td></td>";
    }
    out += "<td>";
    for (std::size_t j = 0; j < s.change_points.size(); ++j) {
      const ChangePoint& p = s.change_points[j];
      std::string v(verdict_name(p.classification.verdict));
      if (j) out += "<br>";
      out += "<span class=\"" + v + "\">" + v + "@" +
             std::to_string(p.sequence) + "</span> " +
             html_escape(format_double(p.classification.baseline_median)) +
             " &rarr; " + html_escape(format_double(p.classification.value));
    }
    out += "</td><td>";
    if (s.bisected) {
      out += "first bad <span class=\"hash\">" +
             html_escape(s.bisection.first_bad_hash) + "</span> (" +
             std::to_string(s.bisection.replays) + " replays)";
    } else if (!s.bisect_error.empty()) {
      out += html_escape(s.bisect_error);
    }
    out += "</td></tr>\n";
  }
  out += "</table>\n";

  if (!result.fits.empty()) {
    out += "<h2>Extra-P scaling fits</h2>\n<table>\n<tr><th>workload</th>"
           "<th>model</th><th>complexity</th><th>adj. R&sup2;</th></tr>\n";
    for (const ScalingFit& f : result.fits) {
      out += "<tr><td>" + html_escape(f.benchmark + "/" + f.system + ":" +
                                      f.fom) + "</td>";
      if (f.ok) {
        out += "<td>" + html_escape(f.model.str()) + "</td><td>" +
               html_escape(f.model.complexity()) + "</td><td>" +
               html_escape(format_double(f.model.r_squared, 4)) + "</td>";
      } else {
        out += "<td colspan=\"3\">" + html_escape(f.error) + "</td>";
      }
      out += "</tr>\n";
    }
    out += "</table>\n";
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace benchpark::analysis
