#include "core/model_io.h"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/parse_number.h"
#include "linalg/psd_repair.h"

namespace dpcopula::core {

DpCopulaModel ModelFromSynthesis(const data::Schema& schema,
                                 const SynthesisResult& result) {
  DpCopulaModel model = result.model;
  model.schema = schema;
  return model;
}

Result<data::Table> SampleFromModel(const DpCopulaModel& model,
                                    std::size_t num_rows, Rng* rng) {
  DPC_ASSIGN_OR_RETURN(const copula::SamplingPlan plan,
                       BuildSamplingPlan(model));
  return plan.Sample(num_rows > 0 ? num_rows : model.fitted_rows, rng);
}

Status SerializeModel(const DpCopulaModel& model, std::ostream& out) {
  if (model.family != CopulaFamily::kGaussian &&
      model.family != CopulaFamily::kStudentT) {
    return Status::InvalidArgument(
        "the model format holds only the gaussian and student-t families");
  }
  out.precision(17);
  out << "DPCOPULA-MODEL v1\n";
  out << "attributes " << model.schema.num_attributes() << "\n";
  for (const auto& attr : model.schema.attributes()) {
    out << "attribute " << attr.name << " " << attr.domain_size << "\n";
  }
  out << "family "
      << (model.family == CopulaFamily::kStudentT ? "student-t" : "gaussian")
      << "\n";
  out << "t_dof " << model.t_dof << "\n";
  out << "fitted_rows " << model.fitted_rows << "\n";
  for (std::size_t j = 0; j < model.marginal_counts.size(); ++j) {
    out << "margin " << j << " " << model.marginal_counts[j].size() << "\n";
    for (double v : model.marginal_counts[j]) out << v << "\n";
  }
  const std::size_t m = model.correlation.rows();
  out << "correlation " << m << "\n";
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      out << model.correlation(i, j) << (j + 1 < m ? ' ' : '\n');
    }
  }
  if (!out) return Status::IOError("model serialization stream failed");
  return Status::OK();
}

Status SaveModel(const DpCopulaModel& model, const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream& out) -> Status {
    return SerializeModel(model, out);
  });
}

namespace {

Status ParseError(const std::string& what) {
  return Status::IOError("model parse error: " + what);
}

}  // namespace

Result<DpCopulaModel> ParseModel(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "DPCOPULA-MODEL v1") {
    return ParseError("bad header");
  }
  DpCopulaModel model;

  std::string token;
  std::size_t num_attrs = 0;
  if (!(in >> token >> num_attrs) || token != "attributes") {
    return ParseError("attributes");
  }
  std::vector<data::Attribute> attrs;
  for (std::size_t i = 0; i < num_attrs; ++i) {
    data::Attribute attr;
    if (!(in >> token >> attr.name >> attr.domain_size) ||
        token != "attribute" || attr.domain_size <= 0) {
      return ParseError("attribute " + std::to_string(i));
    }
    attrs.push_back(std::move(attr));
  }
  model.schema = data::Schema(std::move(attrs));

  std::string family;
  if (!(in >> token >> family) || token != "family") {
    return ParseError("family");
  }
  if (family == "student-t") {
    model.family = CopulaFamily::kStudentT;
  } else if (family == "gaussian") {
    model.family = CopulaFamily::kGaussian;
  } else {
    return ParseError("unknown family '" + family + "'");
  }
  if (!(in >> token >> model.t_dof) || token != "t_dof") {
    return ParseError("t_dof");
  }
  // Non-finite dof fails closed for *both* families: the Gaussian family
  // ignores t_dof when sampling, but a NaN here means the file is corrupt
  // and nothing else in it can be trusted.
  if (!std::isfinite(model.t_dof)) {
    return ParseError("non-finite t_dof");
  }
  if (model.family == CopulaFamily::kStudentT && !(model.t_dof > 0.0)) {
    return ParseError("student-t family requires positive dof");
  }
  // Strict: operator>> would wrap "-5" to 2^64 - 5.
  std::string rows;
  std::uint64_t fitted_rows = 0;
  if (!(in >> token >> rows) || token != "fitted_rows" ||
      !ParseUint64(rows, &fitted_rows)) {
    return ParseError("fitted_rows");
  }
  model.fitted_rows = fitted_rows;

  model.marginal_counts.resize(num_attrs);
  for (std::size_t j = 0; j < num_attrs; ++j) {
    std::size_t index = 0, size = 0;
    if (!(in >> token >> index >> size) || token != "margin" || index != j) {
      return ParseError("margin header " + std::to_string(j));
    }
    if (size != static_cast<std::size_t>(
                    model.schema.attribute(j).domain_size)) {
      return ParseError("margin size mismatch for attribute " +
                        std::to_string(j));
    }
    model.marginal_counts[j].resize(size);
    for (std::size_t v = 0; v < size; ++v) {
      if (!(in >> model.marginal_counts[j][v]) ||
          !std::isfinite(model.marginal_counts[j][v])) {
        return ParseError("margin values " + std::to_string(j));
      }
    }
  }

  std::size_t m = 0;
  if (!(in >> token >> m) || token != "correlation" || m != num_attrs) {
    return ParseError("correlation header");
  }
  model.correlation = linalg::Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (!(in >> model.correlation(i, j)) ||
          !std::isfinite(model.correlation(i, j))) {
        return ParseError("correlation values");
      }
    }
  }
  // Validate (and gently repair round-tripped) correlation matrices.
  DPC_ASSIGN_OR_RETURN(model.correlation,
                       linalg::EnsureCorrelationMatrix(model.correlation));
  return model;
}

Result<DpCopulaModel> LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  if (DPC_FAILPOINT("model.load.open")) {
    return failpoint::InjectedFault("model.load.open");
  }
  DPC_ASSIGN_OR_RETURN(DpCopulaModel model, ParseModel(in));
  // The correlation block is the last section of a model file: any further
  // non-whitespace bytes mean the file is corrupt (appended garbage, a
  // doubled write, or a streaming-state file loaded through the wrong
  // entry point) and the load fails closed.
  std::string trailing;
  if (in >> trailing) {
    return ParseError("trailing data after correlation block");
  }
  return model;
}

}  // namespace dpcopula::core
