// util module: CLI parsing, table rendering, statistics, RNG quality.

#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace tsbo;

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--nx=128", "--verbose", "--rtol=1e-7",
                        "--ranks=1,2,4"};
  util::Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("nx", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_double("rtol", 0.0), 1e-7);
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_EQ(cli.get_int_list("ranks", {}), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(cli.get_int_list("absent", {7}), (std::vector<int>{7}));
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(util::Cli(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Table, RendersAlignedCells) {
  util::Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(22);
  t.separator();
  t.row().add("gamma").add("x");
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22    |"), std::string::npos);
  // Header, 3 rows, 4 separators.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 8);
}

TEST(Table, SpeedupAndSciFormatting) {
  EXPECT_EQ(util::speedup_str(2.0, 1.0), "2.0x");
  EXPECT_EQ(util::speedup_str(1.0, 2.0), "0.5x");
  EXPECT_EQ(util::speedup_str(1.0, 0.0), "-");
  EXPECT_EQ(util::sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(util::sci(-1e-15, 1), "-1.0e-15");
}

TEST(Stats, MinMeanMax) {
  util::MinMeanMax s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(-1.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Random, DeterministicPerSeed) {
  util::Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
  }
  bool any_diff = false;
  util::Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) any_diff |= a2.next() != c.next();
  EXPECT_TRUE(any_diff);
}

TEST(Random, UniformRangeAndMoments) {
  util::Xoshiro256 rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(Random, NormalMoments) {
  util::Xoshiro256 rng(11);
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
    sum4 += x * x * x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum4 / n, 3.0, 0.15);  // Gaussian kurtosis
}

TEST(Random, UniformIndexInRange) {
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Timer, WallTimerMeasuresSpinWait) {
  util::WallTimer t;
  util::spin_wait(5e-3);
  const double el = t.seconds();
  EXPECT_GE(el, 4.5e-3);
  EXPECT_LT(el, 0.25);
}

TEST(Timer, ScopedPhaseAccumulates) {
  using util::Phase;
  util::PhaseTimers pt;
  {
    const util::ScopedPhase p(&pt, Phase::kOrthoDot);
    util::spin_wait(2e-3);
  }
  {
    const util::ScopedPhase p(&pt, Phase::kOrthoDot);
    util::spin_wait(2e-3);
  }
  { const util::ScopedPhase p(nullptr, Phase::kOrthoDot); }  // times nothing
  EXPECT_GE(pt.seconds(Phase::kOrthoDot), 3.5e-3);
  EXPECT_EQ(pt.count(Phase::kOrthoDot), 2u);
  for (std::size_t i = 0; i < util::kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    if (p != Phase::kOrthoDot) EXPECT_EQ(pt.count(p), 0u) << util::name(p);
  }
  EXPECT_EQ(util::name(Phase::kOrthoDot), "ortho/dot");
}

TEST(Timer, DoubleStartThrows) {
  using util::Phase;
  util::PhaseTimers pt;
  pt.start(Phase::kTotal);
  EXPECT_THROW(pt.start(Phase::kTotal), std::logic_error);
  pt.stop(Phase::kTotal);
  EXPECT_THROW(pt.stop(Phase::kTotal), std::logic_error);
  EXPECT_NO_THROW(pt.start(Phase::kTotal));
  pt.stop(Phase::kTotal);
  EXPECT_EQ(pt.count(Phase::kTotal), 2u);
}

}  // namespace
