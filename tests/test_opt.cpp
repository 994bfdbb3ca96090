// Optimization substrate: golden-section search.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/golden.hpp"

namespace choir::opt {
namespace {

TEST(Golden, FindsQuadraticMinimum) {
  const auto r = golden_section_minimize(
      [](double x) { return (x - 2.5) * (x - 2.5); }, 0.0, 10.0, 1e-8);
  EXPECT_NEAR(r.x, 2.5, 1e-6);
  EXPECT_NEAR(r.fx, 0.0, 1e-10);
}

TEST(Golden, HandlesBoundaryMinimum) {
  const auto r =
      golden_section_minimize([](double x) { return x; }, 1.0, 5.0, 1e-8);
  EXPECT_NEAR(r.x, 1.0, 1e-5);
}

TEST(Golden, NonSmoothButUnimodal) {
  const auto r = golden_section_minimize(
      [](double x) { return std::abs(x - 1.3); }, -4.0, 4.0, 1e-9);
  EXPECT_NEAR(r.x, 1.3, 1e-6);
}

TEST(Golden, RejectsInvertedBracket) {
  EXPECT_THROW(
      golden_section_minimize([](double x) { return x * x; }, 1.0, -1.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace choir::opt
