#include "common/circuit.h"

namespace xmlproj {

const char* CircuitStateName(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kHalfOpen:
      return "half-open";
    case CircuitState::kOpen:
      return "open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  if (options_.window == 0) options_.window = 1;
  if (options_.min_samples == 0) options_.min_samples = 1;
  if (options_.min_samples > options_.window) {
    options_.min_samples = options_.window;
  }
  if (options_.half_open_probes < 1) options_.half_open_probes = 1;
  window_.assign(options_.window, false);
  if (options_.metrics != nullptr) {
    options_.metrics->SetHelp(
        "xmlproj_circuit_state",
        "Circuit breaker state (0=closed, 1=half-open, 2=open).");
    options_.metrics->SetHelp("xmlproj_circuit_opened_total",
                              "Transitions into the open state.");
    options_.metrics->SetHelp(
        "xmlproj_circuit_fast_fail_total",
        "Task admissions denied while the breaker was open.");
    state_gauge_ = options_.metrics->GetGauge("xmlproj_circuit_state");
    opened_counter_ =
        options_.metrics->GetCounter("xmlproj_circuit_opened_total");
    fast_fail_counter_ =
        options_.metrics->GetCounter("xmlproj_circuit_fast_fail_total");
    if (state_gauge_ != nullptr) state_gauge_->Set(0);
  }
}

uint64_t CircuitBreaker::NowNs() const {
  return options_.now_ns != nullptr ? options_.now_ns() : MonotonicNowNs();
}

void CircuitBreaker::TransitionTo(CircuitState next, uint64_t now) {
  if (state_ == next) return;
  if (options_.logger != nullptr) {
    options_.logger->Log(
        next == CircuitState::kOpen ? LogLevel::kWarn : LogLevel::kInfo,
        "circuit.transition",
        {{"from", CircuitStateName(state_)},
         {"to", CircuitStateName(next)},
         {"failures_in_window", failures_in_window_},
         {"window_filled", static_cast<uint64_t>(filled_)}});
  }
  state_ = next;
  if (next == CircuitState::kOpen) {
    opened_at_ns_ = now;
    ++opened_count_;
    if (opened_counter_ != nullptr) opened_counter_->Increment();
  } else if (next == CircuitState::kHalfOpen) {
    probes_issued_ = 0;
    probe_successes_ = 0;
  } else {  // re-close: the window restarts clean
    window_.assign(options_.window, false);
    head_ = 0;
    filled_ = 0;
    failures_in_window_ = 0;
  }
  if (state_gauge_ != nullptr) state_gauge_->Set(static_cast<int>(next));
}

void CircuitBreaker::PushOutcome(bool failure) {
  if (filled_ == options_.window) {
    // Evicting the oldest outcome.
    if (window_[head_]) --failures_in_window_;
  } else {
    ++filled_;
  }
  window_[head_] = failure;
  if (failure) ++failures_in_window_;
  head_ = (head_ + 1) % options_.window;
}

bool CircuitBreaker::ShouldTrip() const {
  if (filled_ < options_.min_samples) return false;
  return static_cast<double>(failures_in_window_) >=
         options_.failure_threshold * static_cast<double>(filled_);
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t now = NowNs();
  // Saturating: a cooldown too long to represent never elapses.
  if (state_ == CircuitState::kOpen &&
      now >= SaturatingDeadlineNs(opened_at_ns_, options_.cooldown_ms)) {
    TransitionTo(CircuitState::kHalfOpen, now);
  }
  switch (state_) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kHalfOpen:
      if (probes_issued_ < options_.half_open_probes) {
        ++probes_issued_;
        return true;
      }
      break;
    case CircuitState::kOpen:
      break;
  }
  ++denied_;
  if (fast_fail_counter_ != nullptr) fast_fail_counter_->Increment();
  return false;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case CircuitState::kClosed:
      PushOutcome(false);
      break;
    case CircuitState::kHalfOpen:
      if (++probe_successes_ >= options_.half_open_probes) {
        TransitionTo(CircuitState::kClosed, NowNs());
      }
      break;
    case CircuitState::kOpen:
      break;  // pre-trip stragglers; see header
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case CircuitState::kClosed:
      PushOutcome(true);
      if (ShouldTrip()) TransitionTo(CircuitState::kOpen, NowNs());
      break;
    case CircuitState::kHalfOpen:
      TransitionTo(CircuitState::kOpen, NowNs());
      break;
    case CircuitState::kOpen:
      break;
  }
}

void CircuitBreaker::Seed(uint64_t successes, uint64_t failures) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != CircuitState::kClosed) return;
  uint64_t total = successes + failures;
  if (total == 0) return;
  uint64_t seed_failures = failures;
  uint64_t seed_successes = successes;
  if (total > options_.window) {
    // Scale down to the window, preserving the failure ratio; rank-round
    // failures up so a failing history cannot be rounded into a clean one.
    double scale =
        static_cast<double>(options_.window) / static_cast<double>(total);
    seed_failures = static_cast<uint64_t>(
        static_cast<double>(failures) * scale + 0.5);
    if (seed_failures > options_.window) seed_failures = options_.window;
    if (failures > 0 && seed_failures == 0) seed_failures = 1;
    seed_successes = options_.window - seed_failures;
  }
  // Successes first, failures last — the "most recent" end of the ring is
  // irrelevant for the ratio but keeps eviction order sensible.
  for (uint64_t i = 0; i < seed_successes; ++i) PushOutcome(false);
  for (uint64_t i = 0; i < seed_failures; ++i) PushOutcome(true);
  if (ShouldTrip()) TransitionTo(CircuitState::kOpen, NowNs());
}

CircuitState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::denied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denied_;
}

uint64_t CircuitBreaker::opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opened_count_;
}

}  // namespace xmlproj
