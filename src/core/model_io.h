#ifndef DPCOPULA_CORE_MODEL_IO_H_
#define DPCOPULA_CORE_MODEL_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/schema.h"
#include "data/table.h"

namespace dpcopula::core {

/// The model a synthesis result was sampled from, under `schema`.
DpCopulaModel ModelFromSynthesis(const data::Schema& schema,
                                 const SynthesisResult& result);

/// Draws `num_rows` synthetic rows from a model (0 = model's fitted_rows).
/// Pure post-processing. Builds a fresh plan per call; callers that sample
/// one model repeatedly (the serving registry) keep the plan instead.
Result<data::Table> SampleFromModel(const DpCopulaModel& model,
                                    std::size_t num_rows, Rng* rng);

/// Writes the self-describing text format ("DPCOPULA-MODEL v1" header, one
/// section per field) to an already-open stream. Used by SaveModel and by
/// StreamingSynthesizer::SaveState, which appends its counters after the
/// model body inside the same atomic write. InvalidArgument, before
/// writing anything, for a family the format cannot hold (kEmpirical,
/// kAutoAic).
Status SerializeModel(const DpCopulaModel& model, std::ostream& out);

/// Serializes the model to a file. Crash-safe: the content is staged in
/// `<path>.tmp`, fsync'ed, and atomically renamed onto `path`, so an
/// interrupted save never leaves a truncated model. Returns IOError on
/// filesystem failure.
Status SaveModel(const DpCopulaModel& model, const std::string& path);

/// Parses one model body, as SerializeModel writes it, from `in` and
/// validates it, stopping right after the correlation block: what may
/// follow is the caller's to check. LoadModel and
/// StreamingSynthesizer::RestoreState share it. Fails closed with a
/// data-independent IOError on malformed or non-finite content.
Result<DpCopulaModel> ParseModel(std::istream& in);

/// Loads and validates a model written by SaveModel. Fails closed with a
/// data-independent IOError on any malformed, non-finite, or trailing
/// content, so a corrupted model file is rejected at load time instead of
/// producing NaN samples downstream.
Result<DpCopulaModel> LoadModel(const std::string& path);

}  // namespace dpcopula::core

#endif  // DPCOPULA_CORE_MODEL_IO_H_
