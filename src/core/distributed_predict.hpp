// Distributed prediction: each rank classifies its block of a (row-
// partitioned) evaluation set against a replicated model and the counts are
// combined with an Allreduce — the natural way to evaluate test accuracy at
// scale without funnelling predictions through one rank.
#pragma once

#include "core/metrics.hpp"
#include "core/model.hpp"
#include "data/sparse.hpp"
#include "mpisim/comm.hpp"

namespace svmcore {

/// Predicts this rank's block of `dataset` (by block_range of comm size/rank)
/// and Allreduces the confusion counts; every rank returns the global matrix.
/// `flavor` selects each rank's scoring engine: f64 is bit-identical to
/// model.predict; reduced flavors score against compressed support vectors
/// — the accuracy-gated serving mode.
[[nodiscard]] ConfusionMatrix distributed_evaluate(
    svmmpi::Comm& comm, const SvmModel& model, const svmdata::Dataset& dataset,
    svmkernel::RowFlavor flavor = svmkernel::RowFlavor::f64);

/// Convenience: global accuracy via distributed_evaluate.
[[nodiscard]] double distributed_accuracy(
    svmmpi::Comm& comm, const SvmModel& model, const svmdata::Dataset& dataset,
    svmkernel::RowFlavor flavor = svmkernel::RowFlavor::f64);

}  // namespace svmcore
