// BenchService: the long-lived multi-tenant benchmarking daemon.
//
// The paper's end state is always-on collaborative infrastructure — many
// users' PR-triggered pipelines landing on shared HPC capacity — not a
// single-process batch tool. BenchService is that promotion: it wraps
// Driver/Workspace behind a thread-safe submission API. submit() returns
// a ticket immediately; a weighted fair-share admission queue (deficit
// round-robin, src/serve/admission.hpp) decides dispatch order across
// tenants; a pool of dispatch workers runs each campaign in an isolated
// per-tenant workspace root against a per-tenant persistent store (the
// Jacamar user-tying model generalized: one identity, one directory
// subtree, one store, one quota).
//
// Backpressure is explicit: bounded per-tenant and global queues reject
// with ServiceBusy (carrying a retry-after hint) instead of queueing
// unboundedly when dispatch capacity saturates.
//
// Durability: every accepted ticket is journaled through the PR-7
// content-addressed store ("service.ticket" records). drain() stops
// admission, finishes accepted work, and flushes every store; a service
// reopened on the same base_dir replays tickets that never reached a
// terminal state (crash recovery), and because campaigns run against the
// same per-tenant store, experiments completed before the crash are
// store hits — nothing re-executes (exaCB's incremental model is what
// makes restart cheap).
//
// Instrumented end to end: "serve.submit"/"serve.dispatch" spans, exact
// serve.* counters (submitted/dispatched/completed/rejected, per-tenant
// throughput, admission-wait), a serve.queue_depth gauge, and the
// "serve.admit"/"serve.dispatch" fault sites so the chaos harness drives
// admission rejections and simulated mid-campaign worker kills.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/detect.hpp"
#include "src/core/driver.hpp"
#include "src/ramble/workspace.hpp"
#include "src/serve/admission.hpp"
#include "src/store/store.hpp"
#include "src/support/error.hpp"

namespace benchpark::serve {

/// Admission rejection (backpressure or an injected admission fault).
/// retry_after_seconds is the service's dispatch-rate-based estimate of
/// when capacity frees up — the HTTP-429 "Retry-After" analogue.
class ServiceBusy : public Error {
 public:
  ServiceBusy(const std::string& what, double retry_after)
      : Error(what), retry_after_seconds(retry_after) {}
  double retry_after_seconds;
};

/// One tenant's campaign submission: which experiment workflow to run on
/// which system, at what intra-tenant priority (higher dispatches first;
/// equal priorities keep submission order).
struct CampaignRequest {
  std::string tenant;
  std::string experiment;  // "<benchmark>/<variant>"
  std::string system;
  int priority = 0;
};

enum class TicketState { queued, running, completed, failed, interrupted };

[[nodiscard]] std::string_view ticket_state_name(TicketState s);

/// Snapshot of one ticket's lifecycle.
struct TicketStatus {
  TicketId id = 0;
  std::string tenant;
  std::string experiment;
  std::string system;
  int priority = 0;
  TicketState state = TicketState::queued;
  /// Global admission order (1-based at dispatch; 0 while queued). The
  /// fair-share property tests assert invariants on this sequence.
  std::uint64_t admit_seq = 0;
  /// Dispatch attempts consumed (serve.dispatch fault retries included).
  int attempts = 0;
  /// True when this ticket was re-admitted by crash recovery.
  bool replayed = false;
  /// Wall-clock seconds between submit() and dispatch.
  double admission_wait_seconds = 0.0;
  /// Campaign outcome (terminal states only).
  std::size_t experiments = 0;
  std::size_t succeeded = 0;
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;
  /// Series in the tenant's FOM history whose most recent change point
  /// is an unresolved regression (post-campaign detection).
  std::size_t regressions = 0;
  std::string error;
};

/// Context handed to the campaign runner for one dispatch.
struct CampaignContext {
  TicketId ticket = 0;
  int attempt = 1;
  /// Isolated per-ticket workspace directory under the tenant's root
  /// (empty when the service has no base_dir).
  std::filesystem::path workspace_dir;
  /// The tenant's persistent store (null when the service has no
  /// base_dir): campaigns re-run only what the store has not seen.
  store::StoreHandle store;
};

/// What one campaign execution produced.
struct CampaignOutcome {
  bool success = true;
  std::size_t experiments = 0;
  std::size_t succeeded = 0;
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;
  /// Currently-regressed series in the tenant's FOM history (the default
  /// runner's post-campaign analysis::run_analysis pass).
  std::size_t regressions = 0;
  std::string detail;
};

/// The pluggable campaign executor. The default runner drives
/// core::Driver::run_workflow; stress tests inject synthetic runners to
/// exercise admission/fairness at thousands-of-campaigns scale.
using CampaignRunner =
    std::function<CampaignOutcome(const CampaignRequest&,
                                  const CampaignContext&)>;

struct ServiceConfig {
  /// Root for the service journal, per-tenant stores, and per-ticket
  /// workspace dirs. Empty = fully in-memory (no journal, no stores) —
  /// the synthetic stress-test mode.
  std::filesystem::path base_dir;
  /// Dispatch workers (campaigns running concurrently, service-wide).
  int workers = 2;
  /// Global admission bound across every tenant queue (backpressure).
  std::size_t max_queued_total = 1024;
  /// Quota for tenants not listed in `tenants`.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenants;
  /// Construct with dispatch paused; resume() starts it. Tests and
  /// benches use this to build deterministic queue states.
  bool start_paused = false;
  /// Run-engine knobs forwarded to the default Driver runner (the store
  /// field is overridden per tenant).
  ramble::RunRequest run;
  /// Post-campaign regression detection over the tenant's FOM history
  /// (default runner, tenants with a store only).
  analysis::DetectorConfig detector;
  /// Override the campaign executor (empty = Driver::run_workflow).
  CampaignRunner runner;
};

/// Aggregate service counters (exact, mutex-published).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;    // ServiceBusy (bounds or admit faults)
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t interrupted = 0;  // parked for replay-on-restart
  std::uint64_t replayed = 0;     // tickets re-admitted at construction
  std::size_t queue_depth = 0;
  int in_flight = 0;
  bool accepting = false;
};

class BenchService {
 public:
  /// Journal record kind for service tickets in the PR-7 store.
  static constexpr const char* kTicketKind = "service.ticket";

  /// Opens the journal (when base_dir is set), replays interrupted
  /// tickets from a previous incarnation, and starts the workers.
  explicit BenchService(ServiceConfig config);
  /// Drains (unless crash_stop() already ran) and joins the workers.
  ~BenchService();

  BenchService(const BenchService&) = delete;
  BenchService& operator=(const BenchService&) = delete;

  /// Thread-safe submission. Returns the ticket id; throws ServiceBusy
  /// on backpressure (tenant queue full, global bound hit, or an
  /// injected "serve.admit" fault) and Error on invalid requests.
  TicketId submit(const CampaignRequest& request);

  [[nodiscard]] TicketStatus status(TicketId id) const;
  /// Block until the ticket reaches a terminal state (or the service
  /// stops making progress: crash_stop/drain with the ticket skipped).
  TicketStatus wait(TicketId id);
  /// Block until every accepted ticket is terminal; returns all
  /// statuses in ticket-id order. Resumes dispatch if paused.
  std::vector<TicketStatus> wait_all();

  /// Start dispatch when constructed with start_paused.
  void resume();

  /// Graceful drain: stop admission, finish every accepted ticket,
  /// flush the journal and every tenant store. Idempotent; the service
  /// stays queryable afterwards but accepts nothing new.
  void drain();

  /// Test/bench hook simulating a process kill: stop admission, abandon
  /// queued tickets, join workers after their current campaign, and
  /// journal NOTHING further — a restart on the same base_dir must
  /// recover from the journal alone.
  void crash_stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] bool accepting() const;
  /// All ticket statuses, id order (benches derive wait percentiles).
  [[nodiscard]] std::vector<TicketStatus> tickets() const;

  /// The isolated root for one tenant under a service base dir.
  [[nodiscard]] static std::filesystem::path tenant_root(
      const std::filesystem::path& base_dir, const std::string& tenant);

  [[nodiscard]] const core::Driver& driver() const { return driver_; }

 private:
  struct Ticket {
    TicketStatus status;
    CampaignRequest request;
    std::chrono::steady_clock::time_point submitted_at;
  };
  /// execute_campaign's result, folded into the ticket under the lock.
  struct RunResult {
    TicketState state = TicketState::failed;
    CampaignOutcome outcome;
    int attempts = 1;
    std::string error;
    double duration_seconds = 0.0;
  };

  void worker_loop();
  [[nodiscard]] RunResult execute_campaign(const CampaignRequest& request,
                                           TicketId id);
  [[nodiscard]] store::StoreHandle tenant_store(const std::string& tenant);
  void journal_put(const Ticket& t, std::string_view state, bool flush);
  void replay_journal();
  [[nodiscard]] double retry_after_locked() const;
  void validate_request(const CampaignRequest& request) const;

  ServiceConfig config_;
  core::Driver driver_;
  CampaignRunner runner_;
  store::StoreHandle journal_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / state change
  std::condition_variable done_cv_;   // waiters: ticket terminal
  FairShareQueue queue_;
  std::map<TicketId, std::unique_ptr<Ticket>> tickets_;
  TicketId next_id_ = 1;
  std::uint64_t admit_seq_ = 0;
  std::map<std::string, std::uint64_t> tenant_submits_;  // admit fault keys
  /// EWMA of campaign wall seconds; drives the retry-after hint.
  double avg_campaign_seconds_ = 0.0;
  bool paused_ = false;
  bool draining_ = false;
  bool stopping_ = false;
  bool crashed_ = false;
  ServiceStats counts_;

  std::mutex stores_mu_;
  std::map<std::string, store::StoreHandle> tenant_stores_;

  std::vector<std::thread> workers_;
};

}  // namespace benchpark::serve
