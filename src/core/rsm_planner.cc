#include "core/rsm_planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "stats/descriptive.h"
#include "stats/percentile.h"

namespace headroom::core {

RsmPlanner::RsmPlanner(RsmOptions options) : options_(options) {}

namespace {

RsmIteration summarize_iteration(std::size_t serving,
                                 const ExperimentObservations& obs,
                                 double predicted) {
  RsmIteration it;
  it.serving = serving;
  it.observed_latency_p95_ms = stats::mean(obs.latency_p95_ms);
  it.observed_p95_load = stats::percentile(obs.total_rps, 95.0);
  it.predicted_latency_ms = predicted;
  return it;
}

ServerCountLatencyModel fit_model(const ExperimentObservations& history) {
  return ServerCountLatencyModel::fit(history.total_rps, history.servers,
                                      history.latency_p95_ms);
}

}  // namespace

RsmSession::RsmSession(RsmOptions options, PoolExperimentBackend* backend)
    : options_(options), backend_(backend) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("RsmSession: null backend");
  }
  result_.starting_serving = backend_->serving_count();
  current_ = result_.starting_serving;
  floor_serving_ = static_cast<std::size_t>(std::max(
      1.0, std::ceil(options_.min_serving_fraction *
                     static_cast<double>(result_.starting_serving))));
  slo_target_ = options_.latency_slo_ms - options_.slo_margin_ms;
}

void RsmSession::seed_baseline(const ExperimentObservations& history) {
  if (state_ != State::kBaseline || seeded_) {
    throw std::logic_error(
        "RsmSession::seed_baseline: session already started");
  }
  if (history.size() == 0) {
    throw std::invalid_argument("RsmSession::seed_baseline: empty history");
  }
  result_.history = history;
  result_.iterations.push_back(summarize_iteration(current_, history, 0.0));
  seeded_ = true;
}

void RsmSession::refresh_fit() {
  // The warm start: the RANSAC refit and the load percentile run only when
  // the history actually grew — a pending poll between observations reuses
  // the previous window's model at O(1). Fits are deterministic (seeded
  // RANSAC), so a memoized fit is bit-identical to the batch path's refit
  // over the same history.
  if (fit_valid_ && fitted_size_ == result_.history.size()) return;
  model_ = fit_model(result_.history);
  p95_load_ = stats::percentile(result_.history.total_rps, 95.0);
  fitted_size_ = result_.history.size();
  fit_valid_ = true;
}

telemetry::SimTime RsmSession::pending_duration() const noexcept {
  if (state_ == State::kBaseline && !seeded_) {
    return options_.baseline_duration;
  }
  if (state_ == State::kObserve) return options_.iteration_duration;
  return 0;
}

bool RsmSession::advance() {
  while (true) {
    switch (state_) {
      case State::kBaseline: {
        if (!seeded_) {
          // Baseline observation (historical data stand-in).
          std::optional<ExperimentObservations> baseline =
              backend_->try_observe(options_.baseline_duration);
          if (!baseline) return false;
          result_.history = *baseline;
          result_.iterations.push_back(
              summarize_iteration(current_, *baseline, 0.0));
        }
        state_ = State::kDecide;
        break;
      }
      case State::kDecide: {
        if (iter_ >= options_.max_iterations) {
          state_ = State::kFinalize;
          break;
        }
        refresh_fit();

        // Model step: minimal server count the fit believes stays within
        // SLO.
        const auto target =
            model_.min_servers_for_slo(p95_load_, slo_target_, current_);
        const auto step_floor = static_cast<std::size_t>(
            std::ceil((1.0 - options_.max_step_fraction) *
                      static_cast<double>(current_)));

        std::size_t next = 0;
        if (target) {
          // Extrapolate step: move toward the target, bounded by the per-
          // iteration cap and the absolute floor.
          next = std::max({*target, step_floor, floor_serving_});
        } else if (!reduced_once_) {
          // History so far has no server-count variation (the first pass
          // over a steady pool): run a bootstrap reduction experiment to
          // create the data the model needs — the paper's "conduct
          // experiments removing servers from production pools" move. Only
          // dare it when the observed high-load latency leaves visible
          // room under the SLO.
          double high_load_latency = 0.0;
          std::size_t n_high = 0;
          for (std::size_t i = 0; i < result_.history.size(); ++i) {
            if (result_.history.total_rps[i] >= p95_load_ * 0.95) {
              high_load_latency += result_.history.latency_p95_ms[i];
              ++n_high;
            }
          }
          if (n_high == 0 ||
              high_load_latency / static_cast<double>(n_high) > slo_target_) {
            result_.slo_limit_reached = true;
            state_ = State::kFinalize;
            break;
          }
          next = std::max(step_floor, floor_serving_);
        } else {
          // min_servers_for_slo returned nothing after we already reduced:
          // either the model lost usability, or — the informative case —
          // the model predicts the current count itself is at the SLO
          // margin.
          result_.slo_limit_reached =
              model_
                  .predict_latency_ms(p95_load_,
                                      static_cast<double>(current_))
                  .has_value();
          state_ = State::kFinalize;
          break;
        }
        if (next >= current_) {
          // The SLO (or the floor) stops any further reduction.
          result_.slo_limit_reached = target.has_value() && *target >= current_;
          state_ = State::kFinalize;
          break;
        }

        pending_predicted_ =
            model_.predict_latency_ms(p95_load_, static_cast<double>(next))
                .value_or(0.0);
        pending_next_ = next;
        backend_->set_serving_count(next);
        state_ = State::kObserve;
        break;
      }
      case State::kObserve: {
        std::optional<ExperimentObservations> obs =
            backend_->try_observe(options_.iteration_duration);
        if (!obs) return false;
        result_.iterations.push_back(
            summarize_iteration(pending_next_, *obs, pending_predicted_));
        result_.history.append(*obs);
        current_ = pending_next_;
        reduced_once_ = true;
        ++iter_;
        state_ = State::kDecide;
        break;
      }
      case State::kFinalize: {
        refresh_fit();
        result_.model = model_;
        const auto recommended = result_.model.min_servers_for_slo(
            p95_load_, slo_target_, result_.starting_serving);
        // The recommendation may sit *above* the last experimental count
        // (the final model says the last step overshot) but never more
        // than one cautious step *below* it — "it is best to remove
        // servers slowly and monitor the accuracy of these forecasts"
        // (§III-A); recommendations beyond the experimentally observed
        // range are extrapolations.
        const auto evidence_floor = static_cast<std::size_t>(
            std::ceil((1.0 - options_.max_step_fraction) *
                      static_cast<double>(current_)));
        result_.recommended_serving =
            std::clamp(recommended.value_or(current_),
                       std::max(floor_serving_, evidence_floor),
                       result_.starting_serving);
        backend_->set_serving_count(result_.recommended_serving);
        state_ = State::kDone;
        break;
      }
      case State::kDone:
        return true;
    }
  }
}

void RsmSession::abort_failsafe() {
  if (state_ == State::kDone) return;
  // Hold-at-last-known-good: the starting count was validated capacity;
  // everything since ran on a feed now past its staleness budget, so the
  // experiment's evidence is void and serving returns to the start.
  result_.recommended_serving = result_.starting_serving;
  result_.slo_limit_reached = false;
  if (fit_valid_) result_.model = model_;
  backend_->set_serving_count(result_.starting_serving);
  aborted_ = true;
  state_ = State::kDone;
}

const RsmResult& RsmSession::result() const {
  if (state_ != State::kDone) {
    throw std::logic_error("RsmSession::result: session not complete");
  }
  return result_;
}

RsmResult RsmSession::take_result() {
  if (state_ != State::kDone) {
    throw std::logic_error("RsmSession::take_result: session not complete");
  }
  return std::move(result_);
}

RsmResult RsmPlanner::optimize(PoolExperimentBackend& backend) const {
  // The batch entry point *is* the incremental path, driven to completion
  // in one call — the construction that keeps the two bit-identical.
  RsmSession session(options_, &backend);
  if (!session.advance()) {
    throw std::runtime_error(
        "RsmPlanner::optimize: backend reported pending data; batch "
        "optimize needs a backend that always completes an observation");
  }
  return session.take_result();
}

}  // namespace headroom::core
