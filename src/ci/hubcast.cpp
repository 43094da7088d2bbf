#include "src/ci/hubcast.hpp"

#include <algorithm>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/fault.hpp"

namespace benchpark::ci {

std::string_view mirror_denial_text(MirrorDenial d) {
  switch (d) {
    case MirrorDenial::pr_not_open:
      return "pull request is not open";
    case MirrorDenial::needs_admin_approval:
      return "fork PRs require review and approval by a site and system "
             "administrator before running on HPC resources";
    case MirrorDenial::protected_path_touched:
      return "PR modifies protected CI configuration; admin approval "
             "required";
  }
  return "?";
}

Hubcast::Hubcast(GitHost* github, GitHost* gitlab, std::string canonical_repo,
                 SecurityPolicy policy)
    : github_(github),
      gitlab_(gitlab),
      canonical_(std::move(canonical_repo)),
      policy_(std::move(policy)) {
  if (!github_ || !gitlab_) throw CiError("hubcast needs both hosts");
  if (!github_->find_repo(canonical_)) {
    throw CiError("canonical repo '" + canonical_ + "' missing on GitHub");
  }
  if (!gitlab_->find_repo(canonical_)) {
    throw CiError("canonical repo '" + canonical_ + "' missing on GitLab");
  }
}

MirrorDecision Hubcast::evaluate(std::uint64_t pr_id) const {
  const auto& pr = const_cast<GitHost*>(github_)->pr(pr_id);
  MirrorDecision decision;
  if (pr.state != PrState::open) {
    decision.denial = MirrorDenial::pr_not_open;
    decision.detail = std::string(mirror_denial_text(*decision.denial));
    return decision;
  }

  bool has_admin_approval = std::any_of(
      pr.approvals.begin(), pr.approvals.end(),
      [&](const std::string& user) { return policy_.admins.count(user); });

  // Protected paths: compare the PR head tree against the target head.
  const auto* source_head =
      const_cast<GitHost*>(github_)->repo(pr.source_repo).head(
          pr.source_branch);
  const auto* target_head =
      const_cast<GitHost*>(github_)->repo(pr.target_repo).head(
          pr.target_branch);
  bool touches_protected = false;
  if (source_head) {
    for (const auto& path : policy_.protected_paths) {
      auto in_source = source_head->files.find(path);
      std::string source_content = in_source == source_head->files.end()
                                       ? ""
                                       : in_source->second;
      std::string target_content;
      if (target_head) {
        auto in_target = target_head->files.find(path);
        if (in_target != target_head->files.end()) {
          target_content = in_target->second;
        }
      }
      if (source_content != target_content) {
        touches_protected = true;
        break;
      }
    }
  }
  if (touches_protected && !has_admin_approval) {
    decision.denial = MirrorDenial::protected_path_touched;
    decision.detail = std::string(mirror_denial_text(*decision.denial));
    return decision;
  }

  bool from_fork = pr.source_repo != canonical_;
  bool trusted = policy_.trusted_users.count(pr.author) > 0;
  if (from_fork && !trusted && !has_admin_approval) {
    decision.denial = MirrorDenial::needs_admin_approval;
    decision.detail = std::string(mirror_denial_text(*decision.denial));
    return decision;
  }

  decision.allowed = true;
  return decision;
}

std::optional<std::string> Hubcast::try_mirror_pr(std::uint64_t pr_id) {
  obs::ScopedSpan span("mirror", "ci");
  if (span.active()) span.annotate("pr", std::to_string(pr_id));
  auto decision = evaluate(pr_id);
  if (!decision.allowed) {
    span.annotate("outcome", "blocked");
    StatusCheck blocked;
    blocked.name = "hubcast/mirror";
    blocked.state = CheckState::failure;
    blocked.description = decision.detail;
    github_->set_status(pr_id, blocked);
    return std::nullopt;
  }
  const auto& pr = github_->pr(pr_id);
  const auto* head = github_->repo(pr.source_repo).head(pr.source_branch);
  if (!head) throw CiError("PR head vanished");

  // The push to the GitLab mirror crosses a network boundary, so it runs
  // behind the "ci.mirror" fault site and its retry gate; exhausted
  // transients surface as a failed hubcast/mirror check, not an
  // exception, so the bridge keeps processing other PRs.
  const std::string mirror_key = canonical_ + "#" + std::to_string(pr_id);
  try {
    support::retry_transient(
        [&](int attempt) {
          support::fault_hit("ci.mirror", mirror_key,
                             static_cast<std::uint64_t>(attempt));
        },
        [](int, const TransientError&) {});
  } catch (const TransientError& e) {
    StatusCheck failed;
    failed.name = "hubcast/mirror";
    failed.state = CheckState::failure;
    failed.description = std::string("mirror push failed after ") +
                         std::to_string(support::kRetryAttempts) +
                         " attempts: " + e.what();
    github_->set_status(pr_id, failed);
    span.annotate("outcome", "push-failed");
    return std::nullopt;
  }
  span.annotate("outcome", "mirrored");

  std::string mirror_branch = "pr-" + std::to_string(pr_id);
  GitRepo& mirror = gitlab_->repo(canonical_);
  mirror.import_commit(*head);
  mirror.set_branch(mirror_branch, head->sha);

  StatusCheck mirrored;
  mirrored.name = "hubcast/mirror";
  mirrored.state = CheckState::success;
  mirrored.description = "mirrored to gitlab:" + canonical_ + "@" +
                         mirror_branch;
  github_->set_status(pr_id, mirrored);
  return mirror_branch;
}

void Hubcast::report_status(std::uint64_t pr_id, const StatusCheck& check) {
  github_->set_status(pr_id, check);
}

void Hubcast::sync_default_branch() {
  const auto* head = github_->repo(canonical_).head("main");
  if (!head) return;
  GitRepo& mirror = gitlab_->repo(canonical_);
  mirror.import_commit(*head);
  mirror.set_branch("main", head->sha);
}

}  // namespace benchpark::ci
