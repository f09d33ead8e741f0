#include "server/admission.h"

#include <algorithm>

#include "common/logging.h"

namespace hetdb {

namespace {

/// EWMA smoothing of the service-time estimate the shed test uses.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         MetricRegistry* registry,
                                         FlightRecorder* recorder,
                                         std::function<GovernorSignals()> signals)
    : options_(options),
      registry_(registry),
      recorder_(recorder),
      signals_(std::move(signals)) {
  HETDB_CHECK(options_.min_concurrency >= 1);
  HETDB_CHECK(options_.max_concurrency >= options_.min_concurrency);
  limit_ = std::clamp(options_.initial_concurrency, options_.min_concurrency,
                      options_.max_concurrency);
  ewma_service_micros_ = options_.initial_service_micros;
  if (registry_ != nullptr) {
    offered_counter_ = &registry_->GetCounter("admission.offered");
    admitted_counter_ = &registry_->GetCounter("admission.admitted");
    shed_counter_ = &registry_->GetCounter("admission.shed");
    completed_counter_ = &registry_->GetCounter("admission.completed");
    failed_counter_ = &registry_->GetCounter("admission.failed");
    limit_gauge_ = &registry_->GetGauge("admission.concurrency_limit");
    depth_gauge_ = &registry_->GetGauge("admission.queue_depth");
    in_flight_gauge_ = &registry_->GetGauge("admission.in_flight");
    limit_gauge_->Set(limit_);
  }
}

AdmissionController::~AdmissionController() { Stop(); }

void AdmissionController::RegisterTenant(const TenantSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantState& tenant = TenantLocked(spec.name);
  tenant.spec = spec;
}

AdmissionController::TenantState& AdmissionController::TenantLocked(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.try_emplace(name).first;
    it->second.spec.name = name;
    if (registry_ != nullptr) {
      it->second.admitted =
          &registry_->GetCounter("admission.admitted." + name);
      it->second.shed = &registry_->GetCounter("admission.shed." + name);
      it->second.completed =
          &registry_->GetCounter("admission.completed." + name);
    }
  }
  return it->second;
}

double AdmissionController::EstimatedLatencyLocked(
    const TenantState& tenant) const {
  // A new arrival waits behind its *own* tenant's queue: under round-robin
  // each of those entries costs roughly `active_tenants` dispatch turns, and
  // `limit_` servers drain turns at the EWMA service rate. Using the global
  // queue here instead couples the tenants — one tenant's backlog would shed
  // the other's arrivals even when its own lane is empty, and whichever
  // tenant happens to hold the backlog keeps every dispatch slot.
  const double turns = static_cast<double>(tenant.queue.size()) *
                       static_cast<double>(std::max<size_t>(
                           round_robin_.size(), 1));
  const double backlog = turns / static_cast<double>(std::max(limit_, 1));
  return ewma_service_micros_ * (1.0 + backlog);
}

bool AdmissionController::Offer(QueuedQueryPtr query) {
  HETDB_CHECK(query != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  offered_++;
  if (offered_counter_ != nullptr) offered_counter_->Increment();
  if (stopped_) {
    ShedLocked(*query, "server shutting down");
    return false;
  }
  TenantState& tenant = TenantLocked(query->tenant);
  if (tenant.queue.size() >= tenant.spec.max_queue) {
    ShedLocked(*query, "tenant queue full");
    return false;
  }
  // A query whose deadline the queue wait + service estimate cannot meet is
  // shed now instead of timing out mid-flight.
  if (query->controls.has_deadline()) {
    const auto now = std::chrono::steady_clock::now();
    const double remaining_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            query->controls.deadline - now)
            .count();
    if (remaining_micros < EstimatedLatencyLocked(tenant)) {
      ShedLocked(*query, "deadline unmeetable at admission");
      return false;
    }
  }
  query->enqueued_at = std::chrono::steady_clock::now();
  if (query->controls.stats != nullptr) {
    // Stamp submission now so queue wait counts into wall time; the
    // executor's own MarkSubmitted is first-call-wins and keeps this.
    query->controls.stats->MarkSubmitted();
  }
  tenant.queue.push_back(std::move(query));
  queued_++;
  if (!tenant.active) {
    tenant.active = true;
    tenant.charged = false;
    round_robin_.push_back(&tenant);
  }
  PublishDepthLocked();
  dispatch_cv_.notify_one();
  return true;
}

void AdmissionController::DeactivateLocked(TenantState* tenant) {
  tenant->active = false;
  tenant->charged = false;
  tenant->deficit = 0;  // an idle tenant accrues no credit
  for (auto it = round_robin_.begin(); it != round_robin_.end(); ++it) {
    if (*it == tenant) {
      round_robin_.erase(it);
      break;
    }
  }
}

QueuedQueryPtr AdmissionController::Take() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    dispatch_cv_.wait(lock, [this] {
      return stopped_ || (queued_ > 0 && in_flight_ < limit_);
    });
    if (stopped_) return nullptr;

    // Weighted deficit round-robin, adapted to dispatch one query per Take:
    // visit the head tenant; credit its quantum once per visit; if its head
    // query fits the deficit, dispatch it, else rotate to the next tenant.
    // Bounded by ring size: every full pass with no dispatch credits every
    // tenant, and deficits are monotone per visit, so progress is certain.
    QueuedQueryPtr picked;
    bool ring_drained = false;
    for (size_t attempts = 0; picked == nullptr; ++attempts) {
      HETDB_CHECK(!round_robin_.empty());
      TenantState* tenant = round_robin_.front();
      // Flush queue heads that died while waiting — cancelled by the client
      // or already past deadline. Doing this before the deficit accounting
      // matters for fairness: a dead entry must not burn its tenant's turn,
      // or a tenant whose backlog aged loses real dispatch slots to the
      // others exactly when it is furthest behind.
      while (!tenant->queue.empty()) {
        QueuedQuery& head = *tenant->queue.front();
        if (head.controls.cancel.cancelled()) {
          if (head.controls.stats != nullptr) {
            head.controls.stats->MarkFinished(false, "cancelled while queued");
          }
          head.promise.set_value(
              Status::Cancelled("cancelled while queued"));
        } else if (head.controls.has_deadline() &&
                   std::chrono::steady_clock::now() >= head.controls.deadline) {
          ShedLocked(head, "deadline expired in queue");
        } else {
          break;
        }
        tenant->queue.pop_front();
        queued_--;
      }
      if (tenant->queue.empty()) {
        DeactivateLocked(tenant);
        PublishDepthLocked();
        if (round_robin_.empty() || queued_ == 0) {
          ring_drained = true;  // back to the condition-variable wait
          break;
        }
        continue;
      }
      if (!tenant->charged) {
        // One round's credit is the tenant's weight, in cost units.
        tenant->deficit += tenant->spec.weight;
        // Cap so a long-idle-queue tenant cannot bank unbounded credit.
        tenant->deficit = std::min(tenant->deficit, 8.0 * tenant->spec.weight);
        tenant->charged = true;
      }
      HETDB_CHECK(!tenant->queue.empty());
      if (tenant->queue.front()->cost <= tenant->deficit ||
          attempts >= 2 * round_robin_.size()) {
        picked = std::move(tenant->queue.front());
        tenant->queue.pop_front();
        queued_--;
        tenant->deficit = std::max(0.0, tenant->deficit - picked->cost);
        if (tenant->queue.empty()) {
          DeactivateLocked(tenant);
        }
        break;
      }
      // Rotate: this tenant's next visit earns a fresh quantum.
      round_robin_.pop_front();
      tenant->charged = false;
      round_robin_.push_back(tenant);
    }
    if (ring_drained) continue;  // every live query was flushed; wait again

    in_flight_++;
    TenantState& tenant = TenantLocked(picked->tenant);
    if (admitted_counter_ != nullptr) admitted_counter_->Increment();
    if (tenant.admitted != nullptr) tenant.admitted->Increment();
    PublishDepthLocked();
    return picked;
  }
}

void AdmissionController::OnComplete(bool ok, int64_t service_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  HETDB_CHECK(in_flight_ > 0);
  in_flight_--;
  if (completed_counter_ != nullptr) completed_counter_->Increment();
  if (!ok && failed_counter_ != nullptr) failed_counter_->Increment();
  // Only successful completions feed the estimator. A query cancelled at
  // its deadline reports service >= deadline; letting those samples in can
  // push the EWMA past every arrival's budget, after which the shed test
  // rejects everything and — since shed queries never complete — nothing
  // ever pulls the estimate back down. Successes are bounded by their
  // deadline, so this keeps the estimator able to probe.
  if (ok && service_micros > 0) {
    ewma_service_micros_ =
        kEwmaAlpha * static_cast<double>(service_micros) +
        (1.0 - kEwmaAlpha) * ewma_service_micros_;
  }
  if (++completions_since_adjust_ >= options_.governor_period) {
    completions_since_adjust_ = 0;
    AdjustLimitLocked();
  }
  PublishDepthLocked();
  dispatch_cv_.notify_one();
}

void AdmissionController::AdjustLimitLocked() {
  if (!signals_) return;
  const GovernorSignals signals = signals_();
  const int before = limit_;
  // Every input is ordered by severity; brownout L2 and above throttle like
  // thrashing.
  const int severity = std::max({static_cast<int>(signals.thrash),
                                 static_cast<int>(signals.breaker),
                                 std::min(signals.brownout_level, 2)});
  if (severity == 2) {
    limit_ = std::max(options_.min_concurrency, limit_ / 2);
  } else if (severity == 1) {
    limit_ = std::max(options_.min_concurrency, limit_ - 1);
  } else {
    limit_ = std::min(options_.max_concurrency, limit_ + 1);
  }
  if (limit_ != before) {
    if (limit_gauge_ != nullptr) limit_gauge_->Set(limit_);
    if (recorder_ != nullptr) {
      recorder_->RecordStateTransition(
          "admission.governor",
          "limit=" + std::to_string(before),
          "limit=" + std::to_string(limit_) + " thrash=" +
              ThrashingDetector::StateName(signals.thrash) + " breaker=" +
              BreakerStateToString(signals.breaker) + " brownout=L" +
              std::to_string(signals.brownout_level));
    }
    if (limit_ > before) {
      // Raising the limit may unblock more than one waiter.
      dispatch_cv_.notify_all();
    }
  }
}

void AdmissionController::ShedLocked(QueuedQuery& query,
                                     const std::string& reason) {
  shed_total_++;
  if (shed_counter_ != nullptr) shed_counter_->Increment();
  auto it = tenants_.find(query.tenant);
  if (it != tenants_.end() && it->second.shed != nullptr) {
    it->second.shed->Increment();
  }
  uint64_t query_id = 0;
  if (query.controls.stats != nullptr) {
    query_id = query.controls.stats->query_id();
    query.controls.stats->MarkShed("shed: " + reason);
  }
  if (recorder_ != nullptr) {
    recorder_->RecordQuerySummary(
        query_id,
        query.controls.stats != nullptr ? query.controls.stats->name() : "",
        {{"status", "shed"}, {"tenant", query.tenant}, {"reason", reason}});
  }
  query.promise.set_value(Status::ResourceExhausted("shed: " + reason));
}

void AdmissionController::Shed(QueuedQuery& query, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  ShedLocked(query, reason);
}

void AdmissionController::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& [name, tenant] : tenants_) {
    while (!tenant.queue.empty()) {
      QueuedQueryPtr query = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      queued_--;
      ShedLocked(*query, "server shutting down");
    }
    tenant.active = false;
    tenant.charged = false;
    tenant.deficit = 0;
  }
  round_robin_.clear();
  PublishDepthLocked();
  dispatch_cv_.notify_all();
}

void AdmissionController::PublishDepthLocked() {
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(queued_));
  }
  if (in_flight_gauge_ != nullptr) in_flight_gauge_->Set(in_flight_);
}

int AdmissionController::concurrency_limit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return limit_;
}

int AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

double AdmissionController::ewma_service_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_service_micros_;
}

}  // namespace hetdb
