#include "src/ci/pipeline.hpp"

#include <algorithm>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::ci {

std::string_view pipeline_status_name(PipelineStatus s) {
  switch (s) {
    case PipelineStatus::success: return "success";
    case PipelineStatus::degraded: return "degraded";
    case PipelineStatus::failed: return "failed";
  }
  return "?";
}

PipelineDef PipelineDef::from_yaml(const yaml::Node& root) {
  PipelineDef def;
  if (!root.has("stages")) {
    throw CiError(".gitlab-ci.yml needs a 'stages:' list");
  }
  def.stages = root.at("stages").as_string_list();
  for (const auto& [key, body] : root.map()) {
    if (key == "stages" || key == "variables" || key == "default") continue;
    CiJobDef job;
    job.name = key;
    job.stage = body.at("stage").as_string_or(def.stages.front());
    if (std::find(def.stages.begin(), def.stages.end(), job.stage) ==
        def.stages.end()) {
      throw CiError("job '" + key + "' uses undeclared stage '" + job.stage +
                    "'");
    }
    if (body.has("tags")) job.tags = body.at("tags").as_string_list();
    if (body.has("script")) job.script = body.at("script").as_string_list();
    job.allow_failure = body.at("allow_failure").as_bool_or(false);
    def.jobs.push_back(std::move(job));
  }
  return def;
}

std::vector<const CiJobDef*> PipelineDef::jobs_in_stage(
    std::string_view stage) const {
  std::vector<const CiJobDef*> out;
  for (const auto& job : jobs) {
    if (job.stage == stage) out.push_back(&job);
  }
  return out;
}

bool RunnerDef::matches(const std::vector<std::string>& wanted) const {
  return std::all_of(wanted.begin(), wanted.end(), [&](const std::string& t) {
    return std::find(tags.begin(), tags.end(), t) != tags.end();
  });
}

const JobResultRecord* PipelineResult::job(std::string_view name) const {
  for (const auto& j : jobs) {
    if (j.name == name) return &j;
  }
  return nullptr;
}

void PipelineEngine::register_runner(RunnerDef runner) {
  if (!runner.executor) throw CiError("runner needs a jacamar executor");
  std::lock_guard<std::mutex> lock(mu_);
  runners_.push_back(std::move(runner));
}

void PipelineEngine::set_default_action(JobAction action) {
  std::lock_guard<std::mutex> lock(mu_);
  default_action_ = std::move(action);
}

void PipelineEngine::set_action(const std::string& job_name,
                                JobAction action) {
  std::lock_guard<std::mutex> lock(mu_);
  actions_[job_name] = std::move(action);
}

PipelineResult PipelineEngine::run(const PipelineDef& def,
                                   const std::string& commit_sha,
                                   const std::string& triggered_by,
                                   const std::string& approved_by) {
  // Snapshot the configuration so concurrent run() calls (and late
  // register_runner/set_action calls) never race on the tables. Runner
  // executors are shared_ptrs — the underlying Jacamar stays shared and
  // serializes its own audit log.
  std::vector<RunnerDef> runners;
  std::map<std::string, JobAction> actions;
  JobAction default_action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runners = runners_;
    actions = actions_;
    default_action = default_action_;
  }

  PipelineResult result;
  bool pipeline_failed = false;
  bool pipeline_degraded = false;

  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan pipeline_span(collector, "pipeline", "ci");
  if (pipeline_span.active()) {
    pipeline_span.annotate("commit", commit_sha);
    pipeline_span.annotate("triggered_by", triggered_by);
  }
  for (const auto& stage : def.stages) {
    obs::ScopedSpan stage_span(
        collector, collector.enabled() ? "stage:" + stage : std::string(),
        "ci");
    for (const auto* job : def.jobs_in_stage(stage)) {
      obs::ScopedSpan job_span(
          collector,
          collector.enabled() ? "job:" + job->name : std::string(), "ci");
      JobResultRecord record;
      record.name = job->name;
      record.stage = stage;

      if (pipeline_failed) {
        record.status = JobStatus::skipped;
        result.jobs.push_back(std::move(record));
        continue;
      }

      auto runner_it = std::find_if(
          runners.begin(), runners.end(),
          [&](const RunnerDef& r) { return r.matches(job->tags); });
      if (runner_it == runners.end()) {
        record.status = JobStatus::no_runner;
        record.log = "no runner with tags [" +
                     support::join(job->tags, ", ") + "]";
        pipeline_failed = true;
        result.jobs.push_back(std::move(record));
        continue;
      }

      Jacamar::Identity identity;
      try {
        identity = runner_it->executor->resolve(triggered_by, approved_by);
      } catch (const CiError& e) {
        record.status = JobStatus::failed;
        record.log = e.what();
        pipeline_failed = true;
        result.jobs.push_back(std::move(record));
        continue;
      }
      runner_it->executor->record(job->name, identity, triggered_by);
      record.runner_id = runner_it->id;
      record.ran_as = identity.login;

      JobContext context{job->name, runner_it->id,
                         runner_it->executor->site(), identity, commit_sha};
      const JobAction* action = nullptr;
      if (auto it = actions.find(job->name); it != actions.end()) {
        action = &it->second;
      } else if (default_action) {
        action = &default_action;
      }

      std::string script_log;
      for (const auto& line : job->script) {
        script_log += "$ " + line + "\n";
      }
      // Every job passes through the "ci.job" fault site (keyed by job
      // name). Transient failures — injected or thrown by the action —
      // are retried through support::retry_transient; a job that needed
      // a retry degrades the pipeline instead of failing it. Any other
      // exception fails the job immediately.
      JobOutcome outcome;
      try {
        outcome = support::retry_transient(
            [&](int attempt) {
              record.attempts = attempt;
              support::fault_hit("ci.job", job->name,
                                 static_cast<std::uint64_t>(attempt));
              return action ? (*action)(context) : JobOutcome{};
            },
            [&](int attempt, const TransientError& e) {
              script_log += "[retry] attempt " + std::to_string(attempt) +
                            " failed (" + e.what() + ")\n";
            });
      } catch (const TransientError& e) {
        outcome.success = false;
        outcome.log = "job failed after " + std::to_string(record.attempts) +
                      " attempts: " + e.what();
      } catch (const std::exception& e) {
        outcome.success = false;
        outcome.log = std::string("job raised: ") + e.what();
      }
      record.log = script_log + outcome.log;
      record.status = outcome.success ? JobStatus::success : JobStatus::failed;
      if (job_span.active()) {
        job_span.annotate("status", outcome.success ? "success" : "failed");
        job_span.annotate("attempts", std::to_string(record.attempts));
      }
      if (record.status == JobStatus::success && record.attempts > 1) {
        pipeline_degraded = true;
      }

      if (record.status == JobStatus::failed) {
        if (job->allow_failure) {
          pipeline_degraded = true;
        } else {
          pipeline_failed = true;
        }
      }
      result.jobs.push_back(std::move(record));
    }
  }
  result.status = pipeline_failed ? PipelineStatus::failed
                  : pipeline_degraded ? PipelineStatus::degraded
                                      : PipelineStatus::success;
  result.success = !pipeline_failed;
  return result;
}

}  // namespace benchpark::ci
