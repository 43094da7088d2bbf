#include "src/serve/service.hpp"

#include <algorithm>
#include <cctype>

#include "src/analysis/analysis.hpp"
#include "src/obs/trace.hpp"
#include "src/support/fault.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/string_util.hpp"

namespace benchpark::serve {

namespace {

constexpr char kFieldSep = '\x1f';

/// Journal key: fixed-width so for_each replays in ticket-id order.
std::string ticket_key(TicketId id) {
  std::string digits = std::to_string(id);
  std::string out = "t";
  out.append(digits.size() >= 10 ? 0 : 10 - digits.size(), '0');
  out += digits;
  return out;
}

std::string encode_ticket(std::string_view state, const CampaignRequest& r) {
  std::string out(state);
  out += kFieldSep;
  out += r.tenant;
  out += kFieldSep;
  out += r.experiment;
  out += kFieldSep;
  out += r.system;
  out += kFieldSep;
  out += std::to_string(r.priority);
  return out;
}

struct DecodedTicket {
  std::string state;
  CampaignRequest request;
};

std::optional<DecodedTicket> decode_ticket(const std::string& value) {
  auto fields = support::split(value, kFieldSep);
  if (fields.size() != 5) return std::nullopt;
  DecodedTicket out;
  out.state = fields[0];
  out.request.tenant = fields[1];
  out.request.experiment = fields[2];
  out.request.system = fields[3];
  try {
    out.request.priority = static_cast<int>(support::parse_int(fields[4]));
  } catch (const Error&) {
    return std::nullopt;
  }
  return out;
}

/// Tenant names become directory components and journal fields; keep
/// them to a safe identifier alphabet.
bool valid_tenant_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_' || c == '.' || c == '@')) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view ticket_state_name(TicketState s) {
  switch (s) {
    case TicketState::queued: return "QUEUED";
    case TicketState::running: return "RUNNING";
    case TicketState::completed: return "COMPLETED";
    case TicketState::failed: return "FAILED";
    case TicketState::interrupted: return "INTERRUPTED";
  }
  return "?";
}

std::filesystem::path BenchService::tenant_root(
    const std::filesystem::path& base_dir, const std::string& tenant) {
  return base_dir / "tenants" / tenant;
}

BenchService::BenchService(ServiceConfig config)
    : config_(std::move(config)) {
  if (config_.workers < 1) throw Error("service needs >= 1 worker");
  queue_.set_default_quota(config_.default_quota);
  for (const auto& [tenant, quota] : config_.tenants) {
    if (!valid_tenant_name(tenant)) {
      throw Error("invalid tenant name '" + tenant + "'");
    }
    queue_.configure(tenant, quota);
  }
  runner_ = config_.runner;
  if (!runner_) {
    runner_ = [this](const CampaignRequest& req, const CampaignContext& ctx) {
      auto id = core::ExperimentId::parse(req.experiment);
      ramble::RunRequest run = config_.run;
      if (ctx.store) run.store = ctx.store;
      ramble::RunReport run_report;
      auto report = driver_.run_workflow(id, req.system, ctx.workspace_dir,
                                         {}, nullptr, run, &run_report);
      CampaignOutcome out;
      out.experiments = report.results.size();
      out.succeeded = report.num_success();
      out.store_hits = run_report.store_hits;
      out.store_misses = run_report.store_misses;
      out.success = !report.results.empty() &&
                    out.succeeded == out.experiments;
      if (!out.success) out.detail = "campaign had failing experiments";
      if (ctx.store) {
        // Post-campaign watchdog: scan the tenant's FOM history (which
        // run_workflow just extended) for unresolved regressions.
        try {
          analysis::AnalysisRequest scan;
          scan.store = ctx.store;
          scan.benchmark = id.benchmark;
          scan.system = req.system;
          scan.detector = config_.detector;
          auto analyzed = analysis::run_analysis(scan);
          out.regressions = analyzed.regressed_series();
          if (out.regressions > 0) {
            if (!out.detail.empty()) out.detail += "; ";
            out.detail += std::to_string(out.regressions) +
                          " series regressed";
          }
        } catch (const Error&) {
          // Detection is advisory; a history/analysis hiccup never fails
          // the campaign that produced valid results.
        }
      }
      return out;
    };
  }
  if (!config_.base_dir.empty()) {
    journal_ = store::Store::open(config_.base_dir / "journal");
    replay_journal();
  }
  paused_ = config_.start_paused;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BenchService::~BenchService() {
  if (!crashed_) {
    try {
      drain();
    } catch (...) {
      // Destructors must not throw; drain failures leave the journal
      // with pending-class tickets, which a restart replays.
    }
  }
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void BenchService::validate_request(const CampaignRequest& request) const {
  // Synthetic runners accept arbitrary workflow names; only the default
  // Driver runner can (and must) validate at admission time, so a bad
  // request is rejected at submit instead of failing a dispatch slot.
  if (config_.runner) return;
  auto id = core::ExperimentId::parse(request.experiment);
  driver_.validate(id, request.system);
}

double BenchService::retry_after_locked() const {
  double per_campaign =
      avg_campaign_seconds_ > 0 ? avg_campaign_seconds_ : 0.25;
  auto workers = static_cast<double>(std::max(1, config_.workers));
  auto backlog = static_cast<double>(queue_.depth() +
                                     static_cast<std::size_t>(
                                         queue_.total_in_flight()));
  return std::max(0.25, per_campaign * (backlog / workers + 1.0));
}

void BenchService::journal_put(const Ticket& t, std::string_view state,
                               bool flush) {
  if (!journal_) return;
  journal_->put(kTicketKind, ticket_key(t.status.id),
                encode_ticket(state, t.request));
  if (flush) journal_->flush();
}

TicketId BenchService::submit(const CampaignRequest& request) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "serve.submit", "serve");
  if (span.active()) span.annotate("tenant", request.tenant);
  if (!valid_tenant_name(request.tenant)) {
    throw Error("invalid tenant name '" + request.tenant + "'");
  }
  validate_request(request);

  TicketId id = 0;
  {
    std::lock_guard lock(mu_);
    ++counts_.submitted;
    collector.counter_add("serve.submitted");
    auto reject = [&](const std::string& why) {
      ++counts_.rejected;
      collector.counter_add("serve.rejected");
      throw ServiceBusy("tenant '" + request.tenant + "': " + why,
                        retry_after_locked());
    };
    if (draining_ || stopping_ || crashed_) {
      reject("service is draining; resubmit to the next incarnation");
    }
    // The "serve.admit" fault site models admission-path overload; the
    // key is the tenant's submission ordinal, so a seeded plan rejects
    // the same submissions on every run regardless of thread timing.
    std::uint64_t ordinal = ++tenant_submits_[request.tenant];
    try {
      support::fault_hit("serve.admit",
                         request.tenant + "#" + std::to_string(ordinal));
    } catch (const Error& e) {
      reject(std::string("admission fault: ") + e.what());
    }
    if (queue_.depth() >= config_.max_queued_total) {
      reject("service queue is full (" +
             std::to_string(config_.max_queued_total) + " campaigns)");
    }
    if (queue_.push(request.tenant, next_id_, request.priority) !=
        FairShareQueue::Refusal::none) {
      reject("tenant queue is full (" +
             std::to_string(queue_.quota(request.tenant).max_queued) +
             " campaigns)");
    }
    id = next_id_++;
    auto ticket = std::make_unique<Ticket>();
    ticket->status.id = id;
    ticket->status.tenant = request.tenant;
    ticket->status.experiment = request.experiment;
    ticket->status.system = request.system;
    ticket->status.priority = request.priority;
    ticket->request = request;
    ticket->submitted_at = std::chrono::steady_clock::now();
    journal_put(*ticket, "queued", /*flush=*/false);
    tickets_.emplace(id, std::move(ticket));
    if (collector.enabled()) {
      collector.gauge_set("serve.queue_depth",
                          static_cast<double>(queue_.depth()));
    }
  }
  if (journal_) journal_->flush();  // durable ticket before returning
  work_cv_.notify_all();
  if (span.active()) span.annotate("ticket", std::to_string(id));
  return id;
}

store::StoreHandle BenchService::tenant_store(const std::string& tenant) {
  if (config_.base_dir.empty()) return nullptr;
  std::lock_guard lock(stores_mu_);
  auto it = tenant_stores_.find(tenant);
  if (it != tenant_stores_.end()) return it->second;
  auto handle =
      store::Store::open(tenant_root(config_.base_dir, tenant) / "store");
  tenant_stores_.emplace(tenant, handle);
  return handle;
}

BenchService::RunResult BenchService::execute_campaign(
    const CampaignRequest& request, TicketId id) {
  auto& collector = obs::TraceCollector::global();
  obs::ScopedSpan span(collector, "serve.dispatch", "serve");
  if (span.active()) {
    span.annotate("tenant", request.tenant);
    span.annotate("ticket", std::to_string(id));
    span.annotate("experiment", request.experiment);
  }
  RunResult result;
  std::string fault_key = "t" + std::to_string(id);
  auto start = std::chrono::steady_clock::now();
  int attempt = 1;
  try {
    support::retry_transient(
        [&](int a) {
          attempt = a;
          double injected = support::fault_hit(
              "serve.dispatch", fault_key, static_cast<std::uint64_t>(a));
          if (injected > 0 && collector.enabled()) {
            collector.emit_span("serve.dispatch.fault", "serve", injected,
                                {{"ticket", fault_key}});
          }
        },
        [&](int, const TransientError&) {
          collector.counter_add("serve.dispatch.faults");
        });
  } catch (const TransientError& e) {
    collector.counter_add("serve.dispatch.faults");
    result.state = TicketState::interrupted;
    result.attempts = attempt;
    result.error = std::string("dispatch retries exhausted: ") + e.what();
    return result;
  } catch (const PermanentError& e) {
    // A permanent dispatch fault models the execution node dying with
    // the campaign on it: park the ticket; restart replays it.
    collector.counter_add("serve.dispatch.faults");
    result.state = TicketState::interrupted;
    result.attempts = attempt;
    result.error = std::string("dispatch worker killed: ") + e.what();
    return result;
  }
  CampaignContext ctx;
  ctx.ticket = id;
  ctx.attempt = attempt;
  if (!config_.base_dir.empty()) {
    ctx.workspace_dir = tenant_root(config_.base_dir, request.tenant) /
                        "campaigns" / ("t" + std::to_string(id));
    ctx.store = tenant_store(request.tenant);
  }
  try {
    result.outcome = runner_(request, ctx);
    result.state = result.outcome.success ? TicketState::completed
                                          : TicketState::failed;
    result.error = result.outcome.detail;
  } catch (const std::exception& e) {
    result.state = TicketState::failed;
    result.error = e.what();
  }
  result.attempts = attempt;
  result.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void BenchService::worker_loop() {
  auto& collector = obs::TraceCollector::global();
  std::unique_lock lock(mu_);
  for (;;) {
    if (stopping_ || crashed_) return;
    std::optional<TicketId> pick;
    if (!paused_) pick = queue_.pop();
    if (!pick) {
      work_cv_.wait(lock);
      continue;
    }
    Ticket& ticket = *tickets_.at(*pick);
    ticket.status.state = TicketState::running;
    ticket.status.admit_seq = ++admit_seq_;
    ticket.status.admission_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ticket.submitted_at)
            .count();
    ++counts_.dispatched;
    collector.counter_add("serve.dispatched");
    collector.counter_add(
        "serve.admission_wait_us",
        static_cast<long long>(ticket.status.admission_wait_seconds * 1e6));
    if (collector.enabled()) {
      collector.gauge_set("serve.queue_depth",
                          static_cast<double>(queue_.depth()));
    }
    CampaignRequest request = ticket.request;
    TicketId id = *pick;

    lock.unlock();
    RunResult result = execute_campaign(request, id);
    lock.lock();

    Ticket& done = *tickets_.at(id);
    done.status.state = result.state;
    done.status.attempts = result.attempts;
    done.status.error = result.error;
    done.status.experiments = result.outcome.experiments;
    done.status.succeeded = result.outcome.succeeded;
    done.status.store_hits = result.outcome.store_hits;
    done.status.store_misses = result.outcome.store_misses;
    done.status.regressions = result.outcome.regressions;
    bool flush_journal = false;
    switch (result.state) {
      case TicketState::completed:
        ++counts_.completed;
        collector.counter_add("serve.completed");
        if (collector.enabled()) {
          collector.counter_add("serve.tenant." + request.tenant +
                                ".completed");
        }
        break;
      case TicketState::failed:
        ++counts_.failed;
        collector.counter_add("serve.failed");
        break;
      default:
        ++counts_.interrupted;
        collector.counter_add("serve.interrupted");
        break;
    }
    if (result.state == TicketState::completed ||
        result.state == TicketState::failed) {
      avg_campaign_seconds_ =
          avg_campaign_seconds_ == 0.0
              ? result.duration_seconds
              : 0.8 * avg_campaign_seconds_ + 0.2 * result.duration_seconds;
    }
    // A crash-stopped service journals nothing more: the simulated kill
    // must leave only what a real kill would have left on disk.
    if (!crashed_) {
      const char* state = result.state == TicketState::completed
                              ? "done-ok"
                              : result.state == TicketState::failed
                                    ? "done-fail"
                                    : "interrupted";
      journal_put(done, state, /*flush=*/false);
      flush_journal = journal_ != nullptr;
    }
    queue_.release(request.tenant);

    if (flush_journal) {
      lock.unlock();
      journal_->flush();
      lock.lock();
    }
    done_cv_.notify_all();
    work_cv_.notify_all();  // a freed in-flight slot may unblock a tenant
  }
}

void BenchService::replay_journal() {
  // Runs from the constructor, before workers exist: no locking needed.
  std::vector<std::pair<TicketId, DecodedTicket>> pending;
  journal_->for_each(kTicketKind, [&](const std::string& key,
                                      const std::string& value) {
    if (key.size() < 2 || key[0] != 't') return;
    TicketId id = 0;
    try {
      id = static_cast<TicketId>(support::parse_int(key.substr(1)));
    } catch (const Error&) {
      return;
    }
    next_id_ = std::max(next_id_, id + 1);
    auto decoded = decode_ticket(value);
    if (!decoded) return;
    if (decoded->state == "queued" || decoded->state == "running" ||
        decoded->state == "interrupted") {
      pending.emplace_back(id, std::move(*decoded));
    }
  });
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, decoded] : pending) {
    auto ticket = std::make_unique<Ticket>();
    ticket->status.id = id;
    ticket->status.tenant = decoded.request.tenant;
    ticket->status.experiment = decoded.request.experiment;
    ticket->status.system = decoded.request.system;
    ticket->status.priority = decoded.request.priority;
    ticket->status.replayed = true;
    ticket->request = decoded.request;
    ticket->submitted_at = std::chrono::steady_clock::now();
    try {
      validate_request(decoded.request);
    } catch (const Error& e) {
      ticket->status.state = TicketState::failed;
      ticket->status.error = std::string("replay validation: ") + e.what();
      ++counts_.failed;
      journal_put(*ticket, "done-fail", /*flush=*/false);
      tickets_.emplace(id, std::move(ticket));
      continue;
    }
    if (queue_.push(decoded.request.tenant, id, decoded.request.priority) !=
        FairShareQueue::Refusal::none) {
      ticket->status.state = TicketState::failed;
      ticket->status.error = "replay refused: tenant queue full";
      ++counts_.failed;
      journal_put(*ticket, "done-fail", /*flush=*/false);
      tickets_.emplace(id, std::move(ticket));
      continue;
    }
    ++counts_.replayed;
    obs::TraceCollector::global().counter_add("serve.replayed");
    tickets_.emplace(id, std::move(ticket));
  }
  if (journal_) journal_->flush();
}

TicketStatus BenchService::status(TicketId id) const {
  std::lock_guard lock(mu_);
  auto it = tickets_.find(id);
  if (it == tickets_.end()) {
    throw Error("unknown ticket " + std::to_string(id));
  }
  return it->second->status;
}

namespace {
bool terminal(TicketState s) {
  return s == TicketState::completed || s == TicketState::failed ||
         s == TicketState::interrupted;
}
}  // namespace

TicketStatus BenchService::wait(TicketId id) {
  std::unique_lock lock(mu_);
  auto it = tickets_.find(id);
  if (it == tickets_.end()) {
    throw Error("unknown ticket " + std::to_string(id));
  }
  Ticket* ticket = it->second.get();
  done_cv_.wait(lock, [&] {
    return terminal(ticket->status.state) || crashed_ || stopping_;
  });
  return ticket->status;
}

std::vector<TicketStatus> BenchService::wait_all() {
  std::unique_lock lock(mu_);
  if (paused_) {
    paused_ = false;
    work_cv_.notify_all();
  }
  done_cv_.wait(lock, [&] {
    return (queue_.depth() == 0 && queue_.total_in_flight() == 0) ||
           crashed_ || stopping_;
  });
  std::vector<TicketStatus> out;
  out.reserve(tickets_.size());
  for (const auto& [id, ticket] : tickets_) out.push_back(ticket->status);
  return out;
}

void BenchService::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void BenchService::drain() {
  {
    std::unique_lock lock(mu_);
    if (crashed_) return;
    draining_ = true;
    paused_ = false;  // drain implies dispatch runs the accepted backlog
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] {
      return (queue_.depth() == 0 && queue_.total_in_flight() == 0) ||
             crashed_;
    });
  }
  if (journal_) journal_->flush();
  std::vector<store::StoreHandle> stores;
  {
    std::lock_guard lock(stores_mu_);
    for (const auto& [tenant, handle] : tenant_stores_) {
      stores.push_back(handle);
    }
  }
  for (const auto& handle : stores) handle->flush();
  obs::TraceCollector::global().counter_add("serve.drains");
}

void BenchService::crash_stop() {
  {
    std::lock_guard lock(mu_);
    if (crashed_) return;
    crashed_ = true;
    paused_ = false;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Release the store handles so a restarted service can reopen the
  // same directories as the journal's sole writer. Nothing is flushed
  // here beyond what submit()/completions already made durable — a real
  // SIGKILL would not flush either.
  {
    std::lock_guard lock(stores_mu_);
    tenant_stores_.clear();
  }
  journal_.reset();
}

ServiceStats BenchService::stats() const {
  std::lock_guard lock(mu_);
  ServiceStats out = counts_;
  out.queue_depth = queue_.depth();
  out.in_flight = queue_.total_in_flight();
  out.accepting = !(draining_ || stopping_ || crashed_);
  return out;
}

bool BenchService::accepting() const {
  std::lock_guard lock(mu_);
  return !(draining_ || stopping_ || crashed_);
}

std::vector<TicketStatus> BenchService::tickets() const {
  std::lock_guard lock(mu_);
  std::vector<TicketStatus> out;
  out.reserve(tickets_.size());
  for (const auto& [id, ticket] : tickets_) out.push_back(ticket->status);
  return out;
}

}  // namespace benchpark::serve
