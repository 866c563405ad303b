#include "fault/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hcc::fault {

namespace {

/// Lower median of a non-empty vector (robust to one inflated outlier even
/// with only two samples).
double lower_median(std::vector<double> v) {
  const std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

/// Per-phase measured/predicted ratios for one phase selector.
template <typename Get>
void flag_phase(const std::vector<obs::PhaseTimes>& measured,
                const std::vector<obs::PhaseTimes>& predicted,
                double deadline_factor, const std::vector<bool>& alive,
                Get get, std::vector<bool>& out) {
  std::vector<double> ratios;
  std::vector<std::size_t> who;
  for (std::size_t w = 0; w < measured.size(); ++w) {
    if (!alive.empty() && !alive[w]) continue;
    const double m = get(measured[w]);
    const double p = get(predicted[w]);
    if (!(m > 0.0) || !(p > 0.0)) continue;
    ratios.push_back(m / p);
    who.push_back(w);
  }
  if (ratios.size() < 2) return;  // no peers to normalize against
  const double scale = lower_median(ratios);
  if (!(scale > 0.0)) return;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    if (ratios[i] > deadline_factor * scale) out[who[i]] = true;
  }
}

}  // namespace

std::vector<bool> straggler_mask(const std::vector<obs::PhaseTimes>& measured,
                                 const std::vector<obs::PhaseTimes>& predicted,
                                 double deadline_factor,
                                 const std::vector<bool>& alive) {
  std::vector<bool> mask(measured.size(), false);
  if (measured.size() != predicted.size() || deadline_factor <= 0.0) {
    return mask;
  }
  flag_phase(measured, predicted, deadline_factor, alive,
             [](const obs::PhaseTimes& t) { return t.pull_s; }, mask);
  flag_phase(measured, predicted, deadline_factor, alive,
             [](const obs::PhaseTimes& t) { return t.compute_s; }, mask);
  flag_phase(measured, predicted, deadline_factor, alive,
             [](const obs::PhaseTimes& t) { return t.push_s; }, mask);
  return mask;
}

std::vector<std::vector<data::Rating>> split_entries_by_shares(
    const data::RatingMatrix& slice, const std::vector<double>& weights) {
  std::vector<std::vector<data::Rating>> batches(weights.size());
  if (slice.nnz() == 0) return batches;

  // Row-sorted copy: slices are row-contiguous but not guaranteed sorted
  // (a schedule reorders them), and the cut points must land on row edges.
  const data::RatingMatrix sorted =
      std::move(data::sort_rows(slice, data::RowSort::kRow).front());
  const std::span<const data::Rating> entries = sorted.entries();

  double total_weight = 0.0;
  for (double w : weights) total_weight += std::max(0.0, w);
  if (!(total_weight > 0.0)) return batches;

  // Walk the receivers in order, giving each a run of whole rows whose nnz
  // reaches its proportional quota (the last receiver takes the remainder).
  std::size_t pos = 0;
  double given = 0.0;
  double quota = 0.0;
  std::size_t receiver = 0;
  // Advance to the first positive-weight receiver.
  auto next_receiver = [&](std::size_t from) {
    std::size_t r = from;
    while (r < weights.size() && !(weights[r] > 0.0)) ++r;
    return r;
  };
  receiver = next_receiver(0);
  if (receiver == weights.size()) return batches;
  quota = static_cast<double>(entries.size()) * weights[receiver] /
          total_weight;

  while (pos < entries.size()) {
    // One whole row at a time.
    std::size_t row_end = pos;
    const std::uint32_t row = entries[pos].u;
    while (row_end < entries.size() && entries[row_end].u == row) ++row_end;

    batches[receiver].insert(batches[receiver].end(), entries.begin() + pos,
                             entries.begin() + row_end);
    given += static_cast<double>(row_end - pos);
    pos = row_end;

    const std::size_t next = next_receiver(receiver + 1);
    if (given >= quota && next != weights.size()) {
      receiver = next;
      quota += static_cast<double>(entries.size()) * weights[receiver] /
               total_weight;
    }
  }
  return batches;
}

FaultRuntime::FaultRuntime(const FaultOptions& options)
    : options_(options), injector_(options.plan) {}

void FaultRuntime::count_retry() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++retries_;
  if (retries_counter_ == nullptr) {
    retries_counter_ = &obs::registry().counter("fault.retries");
  }
  retries_counter_->add(1);
}

void FaultRuntime::count_checksum_failure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++checksum_failures_;
  if (checksum_counter_ == nullptr) {
    checksum_counter_ = &obs::registry().counter("fault.checksum_failures");
  }
  checksum_counter_->add(1);
}

void FaultRuntime::count_recovery(double wall_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recoveries_;
  recovery_wall_s_ += wall_s;
  if (recoveries_counter_ == nullptr) {
    recoveries_counter_ = &obs::registry().counter("fault.recoveries");
    recovery_hist_ = &obs::registry().histogram("fault.recovery_s");
  }
  recoveries_counter_->add(1);
  recovery_hist_->observe(wall_s);
}

void FaultRuntime::count_rollback() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++rollbacks_;
  if (rollbacks_counter_ == nullptr) {
    rollbacks_counter_ = &obs::registry().counter("fault.divergence_rollbacks");
  }
  rollbacks_counter_->add(1);
}

void FaultRuntime::count_stragglers(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) return;
  stragglers_ += n;
  if (stragglers_counter_ == nullptr) {
    stragglers_counter_ = &obs::registry().counter("fault.stragglers");
  }
  stragglers_counter_->add(n);
}

}  // namespace hcc::fault
