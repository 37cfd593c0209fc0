#ifndef LEVA_ML_METRICS_H_
#define LEVA_ML_METRICS_H_

#include <vector>

namespace leva {

/// Fraction of exact matches (classification).
double Accuracy(const std::vector<double>& truth,
                const std::vector<double>& pred);

/// Mean absolute error (regression; Fig. 5 reports this).
double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& pred);

/// Coefficient of determination (used by the Fig. 3 recovery study).
double R2Score(const std::vector<double>& truth,
               const std::vector<double>& pred);

/// Binary F1 with `positive` as the positive label (entity resolution).
double F1Binary(const std::vector<double>& truth,
                const std::vector<double>& pred, double positive = 1.0);

double PrecisionBinary(const std::vector<double>& truth,
                       const std::vector<double>& pred, double positive = 1.0);
double RecallBinary(const std::vector<double>& truth,
                    const std::vector<double>& pred, double positive = 1.0);

}  // namespace leva

#endif  // LEVA_ML_METRICS_H_
