// 2-D node positions (metres) for the unit-disc propagation model.
#pragma once

#include <cmath>
#include <limits>

namespace essat::net {

struct Position {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Position& a, const Position& b) {
    return a.x == b.x && a.y == b.y;
  }
};

inline double distance_sq(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double distance(const Position& a, const Position& b) {
  return std::sqrt(distance_sq(a, b));
}

// The largest double T whose correctly rounded sqrt is <= r. sqrt is
// monotone, so for every double d2: d2 <= T exactly when sqrt(d2) <= r,
// i.e. distance_sq(a, b) <= sq_cutoff(r) decides distance(a, b) <= r
// without the square root.
inline double sq_cutoff(double r) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(r >= 0.0)) return -kInf;  // negative or NaN: nothing is within r
  double t = r * r;
  while (std::sqrt(t) > r) t = std::nextafter(t, 0.0);
  while (t < kInf && std::sqrt(std::nextafter(t, kInf)) <= r) {
    t = std::nextafter(t, kInf);
  }
  return t;
}

}  // namespace essat::net
