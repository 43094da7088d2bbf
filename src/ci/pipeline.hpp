// GitLab-CI-style pipeline engine (Section 3.3): stages, jobs, tagged
// runners at multiple HPC sites, and Jacamar-mediated execution identity.
//
// A pipeline definition is parsed from a .gitlab-ci.yml-shaped document:
//
//   stages: [build, bench, analyze]
//   build-saxpy:
//     stage: build
//     tags: [cts1]
//     script: [spack install saxpy]
//
// Job *effects* are supplied by the embedder: a JobAction callback keyed
// by job name runs the actual work (building environments, running
// workspaces) and returns success/failure plus a log. This keeps the
// engine generic while the Benchpark driver wires real behavior in.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/ci/jacamar.hpp"
#include "src/yaml/node.hpp"

namespace benchpark::ci {

struct CiJobDef {
  std::string name;
  std::string stage;
  std::vector<std::string> tags;    // runner must carry all of them
  std::vector<std::string> script;  // informational (rendered into logs)
  bool allow_failure = false;
};

struct PipelineDef {
  std::vector<std::string> stages;
  std::vector<CiJobDef> jobs;

  /// Parse the .gitlab-ci.yml subset above.
  static PipelineDef from_yaml(const yaml::Node& root);
  [[nodiscard]] std::vector<const CiJobDef*> jobs_in_stage(
      std::string_view stage) const;
};

/// A registered runner at a site.
struct RunnerDef {
  std::string id;               // "llnl-cts1-01"
  std::vector<std::string> tags;
  std::shared_ptr<Jacamar> executor;  // identity resolution + audit

  [[nodiscard]] bool matches(const std::vector<std::string>& tags) const;
};

/// What a job's action returns.
struct JobOutcome {
  bool success = true;
  std::string log;
};

/// Context handed to job actions.
struct JobContext {
  std::string job_name;
  std::string runner_id;
  std::string site;
  Jacamar::Identity identity;
  std::string commit_sha;
};

using JobAction = std::function<JobOutcome(const JobContext&)>;

enum class JobStatus { skipped, success, failed, no_runner };

/// Terminal pipeline state. `degraded` means the pipeline produced its
/// results but not cleanly: some job needed a transient-failure retry, or
/// an allow_failure job failed.
enum class PipelineStatus { success, degraded, failed };

[[nodiscard]] std::string_view pipeline_status_name(PipelineStatus s);

struct JobResultRecord {
  std::string name;
  std::string stage;
  JobStatus status = JobStatus::skipped;
  std::string runner_id;
  std::string ran_as;
  std::string log;
  /// Action invocations this job consumed: 1 for a clean run, 1+k after k
  /// transient retries, 0 for skipped / no_runner jobs.
  int attempts = 0;
};

struct PipelineResult {
  /// Back-compat alias for status != failed.
  bool success = true;
  PipelineStatus status = PipelineStatus::success;
  std::vector<JobResultRecord> jobs;

  [[nodiscard]] const JobResultRecord* job(std::string_view name) const;
};

/// Thread-safe for the common serving pattern: configure once
/// (register_runner / set_action), then run() many pipelines from many
/// threads concurrently. run() snapshots the runner and action tables
/// under the engine lock, so late registrations are also safe — they
/// apply to pipelines started after the call.
class PipelineEngine {
public:
  void register_runner(RunnerDef runner);
  /// Default action when no job-specific action is registered.
  void set_default_action(JobAction action);
  void set_action(const std::string& job_name, JobAction action);

  /// Run all stages in order. Jobs in a stage run on the first matching
  /// runner; a failed (non-allow_failure) job skips later stages.
  PipelineResult run(const PipelineDef& def, const std::string& commit_sha,
                     const std::string& triggered_by,
                     const std::string& approved_by = "");

  [[nodiscard]] std::vector<RunnerDef> runners() const {
    std::lock_guard<std::mutex> lock(mu_);
    return runners_;
  }

private:
  mutable std::mutex mu_;
  std::vector<RunnerDef> runners_;
  std::map<std::string, JobAction> actions_;
  JobAction default_action_;
};

}  // namespace benchpark::ci
