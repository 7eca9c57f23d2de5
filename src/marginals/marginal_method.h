#ifndef DPCOPULA_MARGINALS_MARGINAL_METHOD_H_
#define DPCOPULA_MARGINALS_MARGINAL_METHOD_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace dpcopula::marginals {

/// Which DP 1-d histogram publisher DPCopula uses for its margins. The paper
/// defaults to EFPA ("superior to other methods", §4.1) but notes any
/// 1-d method can be plugged in; Dwork's baseline is provided for ablations.
enum class MarginalMethod {
  kEfpa,
  kDwork,
  kNoiseFirst,
  kStructureFirst,
};

/// Publishes `counts` with `epsilon`-DP using the selected method.
Result<std::vector<double>> PublishMarginal(MarginalMethod method,
                                            const std::vector<double>& counts,
                                            double epsilon, Rng* rng);

}  // namespace dpcopula::marginals

#endif  // DPCOPULA_MARGINALS_MARGINAL_METHOD_H_
