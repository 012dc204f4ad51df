#include "util/random.hpp"

#include <cmath>

namespace tsbo::util {

double Xoshiro256::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  have_spare_ = true;
  return u * factor;
}

void fill_normal(Xoshiro256& rng, std::span<double> out) {
  for (double& x : out) x = rng.normal();
}

}  // namespace tsbo::util
