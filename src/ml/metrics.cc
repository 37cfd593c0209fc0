#include "ml/metrics.h"

#include <cmath>

namespace leva {

double Accuracy(const std::vector<double>& truth,
                const std::vector<double>& pred) {
  if (truth.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == pred[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& pred) {
  if (truth.empty()) return 0.0;
  double sum = 0;
  for (size_t i = 0; i < truth.size(); ++i) sum += std::fabs(truth[i] - pred[i]);
  return sum / static_cast<double>(truth.size());
}

double R2Score(const std::vector<double>& truth,
               const std::vector<double>& pred) {
  if (truth.empty()) return 0.0;
  double mean = 0;
  for (double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0;
  double ss_tot = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot <= 0) return ss_res <= 0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

namespace {
struct Counts {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
};
Counts CountBinary(const std::vector<double>& truth,
                   const std::vector<double>& pred, double positive) {
  Counts c;
  for (size_t i = 0; i < truth.size(); ++i) {
    const bool t = truth[i] == positive;
    const bool p = pred[i] == positive;
    if (t && p) ++c.tp;
    else if (!t && p) ++c.fp;
    else if (t && !p) ++c.fn;
  }
  return c;
}
}  // namespace

double PrecisionBinary(const std::vector<double>& truth,
                       const std::vector<double>& pred, double positive) {
  const Counts c = CountBinary(truth, pred, positive);
  return c.tp + c.fp == 0 ? 0.0
                          : static_cast<double>(c.tp) /
                                static_cast<double>(c.tp + c.fp);
}

double RecallBinary(const std::vector<double>& truth,
                    const std::vector<double>& pred, double positive) {
  const Counts c = CountBinary(truth, pred, positive);
  return c.tp + c.fn == 0 ? 0.0
                          : static_cast<double>(c.tp) /
                                static_cast<double>(c.tp + c.fn);
}

double F1Binary(const std::vector<double>& truth,
                const std::vector<double>& pred, double positive) {
  const double p = PrecisionBinary(truth, pred, positive);
  const double r = RecallBinary(truth, pred, positive);
  return p + r <= 0 ? 0.0 : 2.0 * p * r / (p + r);
}

}  // namespace leva
