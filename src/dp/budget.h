#ifndef DPCOPULA_DP_BUDGET_H_
#define DPCOPULA_DP_BUDGET_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dpcopula::dp {

/// Tracks epsilon spending under sequential composition (Theorem 3.1).
/// Mechanisms charge the accountant before drawing noise; an over-budget
/// charge fails with PrivacyBudgetExceeded, turning accounting mistakes into
/// loud errors instead of silent privacy leaks.
///
/// Parallel composition (Theorem 3.2) is the caller's to apply: a
/// mechanism that runs once on each of several disjoint partitions charges
/// its epsilon once, through `ChargeParallel`, which logs the charge as
/// parallel.
///
/// Thread safety: Charge/ChargeParallel are atomic check-and-spend
/// operations guarded by an internal mutex, so concurrent chargers can never
/// both pass the admission check and jointly overspend `total_` — the
/// serving path charges one shared per-tenant accountant from many request
/// threads. spent()/remaining()/AnnotateLastChargeSensitivity take the same
/// lock. entries() returns a reference to the charge log and is
/// safe only once concurrent charging has quiesced (reports and audits run
/// after workers join).
class BudgetAccountant {
 public:
  /// An accountant allowed to spend up to `epsilon` in total.
  explicit BudgetAccountant(double epsilon, std::string label = "root");

  /// Copy/move duplicate the accounting state; the copy gets its own lock.
  BudgetAccountant(const BudgetAccountant& other);
  BudgetAccountant& operator=(const BudgetAccountant& other);
  BudgetAccountant(BudgetAccountant&& other);
  BudgetAccountant& operator=(BudgetAccountant&& other);

  double total_epsilon() const { return total_; }
  double spent() const;
  double remaining() const;
  const std::string& label() const { return label_; }

  /// Charges `epsilon` under sequential composition. `sensitivity` is the
  /// L1 sensitivity the mechanism's noise is calibrated to; it is recorded
  /// for the audit log only (0 = not recorded) and never affects the
  /// accounting itself.
  Status Charge(double epsilon, const std::string& what,
                double sensitivity = 0.0);

  /// Records that `epsilon` was spent on each of several *disjoint* subsets
  /// of the data. Under parallel composition this costs only `epsilon`.
  Status ChargeParallel(double epsilon, const std::string& what,
                        double sensitivity = 0.0);

  /// Back-fills the sensitivity of the most recent charge. For mechanisms
  /// whose sensitivity is only known after they run (e.g. the Kendall
  /// estimator's 4/(n_hat+1) depends on the subsample size it picks) while
  /// the charge must still precede the noise draw. No-op on an empty log.
  void AnnotateLastChargeSensitivity(double sensitivity);

  /// Log of every charge, for audits and tests.
  struct Entry {
    double epsilon;
    bool parallel;
    std::string what;         // Mechanism name, e.g. "correlation:kendall".
    double sensitivity = 0.0; // L1 sensitivity; 0 = not recorded.
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  Status ChargeLocked(double epsilon, bool parallel, const std::string& what,
                      double sensitivity);

  mutable std::mutex mu_;
  double total_;
  double spent_ = 0.0;
  std::string label_;
  std::vector<Entry> entries_;
};

}  // namespace dpcopula::dp

#endif  // DPCOPULA_DP_BUDGET_H_
