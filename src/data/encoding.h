// Encoders turning labelled Samples into model inputs:
//  * the coarse network consumes (land, mask, local) batches of normalised
//    features, labelled with the coarse fault family;
//  * the flat-vector models (Random Forest, Naive Bayes) consume fixed-size
//    vectors where features of unavailable landmarks are zero-filled
//    ("we naively set the features dimension to the maximum possible size,
//    and we set to zero the missing landmarks values", §IV-B.a).
#pragma once

#include "data/dataset.h"
#include "data/normalizer.h"
#include "nn/trainer.h"
#include "tensor/matrix.h"

namespace diagnet::data {

/// Whole dataset -> coarse-net training set. Labels are the coarse fault
/// family indices (FaultFamily cast); mask rows reflect the dataset's
/// landmark availability.
nn::CoarseDataset encode_coarse(const Dataset& dataset,
                                const FeatureSpace& fs,
                                const Normalizer& normalizer);

/// One raw feature vector -> a single-row LandBatch.
/// `landmark_available` selects the mask (may differ from training).
nn::LandBatch encode_sample(const std::vector<double>& raw_features,
                            const FeatureSpace& fs,
                            const Normalizer& normalizer,
                            const std::vector<bool>& landmark_available);

/// N raw feature vectors -> an N-row LandBatch sharing one availability
/// mask. Row i is encoded exactly as encode_sample(*raw_features[i], ...)
/// would encode it (the batched diagnosis engine relies on this).
nn::LandBatch encode_batch(
    const std::vector<const std::vector<double>*>& raw_features,
    const FeatureSpace& fs, const Normalizer& normalizer,
    const std::vector<bool>& landmark_available);

/// Whole dataset -> flat (n x m) design matrix with zero-filled
/// unavailable features. Values are normalised.
tensor::Matrix encode_flat(const Dataset& dataset, const FeatureSpace& fs,
                           const Normalizer& normalizer);

/// One raw feature vector -> flat normalised vector (all m features), each
/// value rounded through float: exactly the values encode_flat stores, so
/// the flat models score what they were fit on.
std::vector<double> encode_flat_sample(const std::vector<double>& raw,
                                       const FeatureSpace& fs,
                                       const Normalizer& normalizer,
                                       const std::vector<bool>& available);

/// Per-sample root-cause labels for the flat-vector models: the primary
/// cause feature index, or the model's nominal marker.
std::vector<std::size_t> cause_labels(const Dataset& dataset,
                                      std::size_t nominal_marker);

}  // namespace diagnet::data
