// Least-squares fitting used for the paper's Figure 1 power-law analysis.
//
// The paper fits P(d) = c * d^(-gamma) by ordinary least squares on the
// log-log transformed points and reports log10(c), gamma, and the
// coefficient of determination R^2 (computed, per the paper, as
// 1 - r'r / y'y with y in deviations from its mean).
#pragma once

#include <cstddef>
#include <vector>

namespace hp {

/// Result of a simple linear regression y = a + b x.
struct LinearFit {
  double intercept = 0.0;  ///< a
  double slope = 0.0;      ///< b
  double r_squared = 0.0;  ///< 1 - SS_res / SS_tot
  std::size_t n = 0;       ///< number of points used
};

/// Ordinary least squares on (x, y) pairs. Requires >= 2 points and
/// non-constant x; throws std::invalid_argument otherwise.
LinearFit linear_fit(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Result of a power-law fit P(d) = c * d^(-gamma).
struct PowerLawFit {
  double log10_c = 0.0;    ///< log10 of the prefactor (paper: 3.161)
  double gamma = 0.0;      ///< exponent (paper: 2.528)
  double r_squared = 0.0;  ///< goodness of the log-log linear fit
  std::size_t n = 0;       ///< number of (degree, frequency) points used
};

/// Fit a power law to a frequency table: frequencies[d] is the number of
/// items with value d (index 0 unused/ignored, as degree 0 has no log).
/// Only entries with frequency > 0 participate, matching how the paper's
/// log-log plot is drawn. Requires >= 2 usable points.
PowerLawFit power_law_fit(const std::vector<std::size_t>& frequencies);

/// Number of points power_law_fit / exponential_fit would use (values
/// d >= 1 with nonzero frequency). Both fits need at least two; check
/// this first to report "no fit" instead of catching their throw.
std::size_t fit_point_count(const std::vector<std::size_t>& frequencies);

/// Result of an exponential fit P(d) = c * exp(-lambda d), via least
/// squares on semi-log points. Used to show complex sizes fit neither
/// model well (paper section 2).
struct ExponentialFit {
  double log10_c = 0.0;
  double lambda = 0.0;
  double r_squared = 0.0;
  std::size_t n = 0;
};

ExponentialFit exponential_fit(const std::vector<std::size_t>& frequencies);

}  // namespace hp
