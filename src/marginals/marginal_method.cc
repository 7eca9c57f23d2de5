#include "marginals/marginal_method.h"

#include "marginals/dwork.h"
#include "marginals/efpa.h"
#include "marginals/noisefirst.h"
#include "marginals/structurefirst.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpcopula::marginals {

namespace {

// One publish counter + latency histogram per method, created lazily on the
// first publish and cached for the process lifetime. Indexed by the enum so
// the hot path never builds a metric-name string.
struct MethodMetrics {
  obs::Counter* publishes;
  obs::Histogram* publish_seconds;
};

MethodMetrics& MetricsFor(MarginalMethod method) {
  static MethodMetrics efpa = {
      obs::MetricsRegistry::Global().GetCounter("marginals.efpa.publishes"),
      obs::MetricsRegistry::Global().GetHistogram(
          "marginals.efpa.publish_seconds")};
  static MethodMetrics dwork = {
      obs::MetricsRegistry::Global().GetCounter("marginals.dwork.publishes"),
      obs::MetricsRegistry::Global().GetHistogram(
          "marginals.dwork.publish_seconds")};
  static MethodMetrics noisefirst = {
      obs::MetricsRegistry::Global().GetCounter(
          "marginals.noisefirst.publishes"),
      obs::MetricsRegistry::Global().GetHistogram(
          "marginals.noisefirst.publish_seconds")};
  static MethodMetrics structurefirst = {
      obs::MetricsRegistry::Global().GetCounter(
          "marginals.structurefirst.publishes"),
      obs::MetricsRegistry::Global().GetHistogram(
          "marginals.structurefirst.publish_seconds")};
  switch (method) {
    case MarginalMethod::kDwork:
      return dwork;
    case MarginalMethod::kNoiseFirst:
      return noisefirst;
    case MarginalMethod::kStructureFirst:
      return structurefirst;
    case MarginalMethod::kEfpa:
      break;
  }
  return efpa;
}

}  // namespace

Result<std::vector<double>> PublishMarginal(MarginalMethod method,
                                            const std::vector<double>& counts,
                                            double epsilon, Rng* rng) {
  MethodMetrics& metrics = MetricsFor(method);
  metrics.publishes->Increment();
  obs::Span timer(metrics.publish_seconds);
  switch (method) {
    case MarginalMethod::kEfpa:
      return PublishEfpaHistogram(counts, epsilon, rng);
    case MarginalMethod::kDwork:
      return PublishDworkHistogram(counts, epsilon, rng);
    case MarginalMethod::kNoiseFirst:
      return PublishNoiseFirstHistogram(counts, epsilon, rng);
    case MarginalMethod::kStructureFirst:
      return PublishStructureFirstHistogram(counts, epsilon, rng);
  }
  return Status::InvalidArgument("unknown marginal method");
}

}  // namespace dpcopula::marginals
