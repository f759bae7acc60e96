// Wisdom (persisted planner decisions) tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/plan1d.hpp"
#include "fft/wisdom.hpp"

namespace hs::fft {
namespace {

class WisdomTest : public ::testing::Test {
 protected:
  void SetUp() override { wisdom_clear(); }
  void TearDown() override {
    wisdom_clear();
    std::error_code ec;
    std::filesystem::remove(path(), ec);
  }
  static std::string path() {
    return (std::filesystem::temp_directory_path() /
            ("hs_wisdom_" + std::to_string(::getpid()) + ".txt"))
        .string();
  }
};

TEST_F(WisdomTest, RememberAndLookup) {
  wisdom_remember(24, Direction::kForward, {4, 3, 2});
  const auto found = wisdom_lookup(24, Direction::kForward);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (std::vector<int>{4, 3, 2}));
  EXPECT_FALSE(wisdom_lookup(24, Direction::kInverse).has_value());
  EXPECT_EQ(wisdom_size(), 1u);
}

TEST_F(WisdomTest, RejectsInvalidFactorizations) {
  EXPECT_THROW(wisdom_remember(24, Direction::kForward, {4, 3}),
               InvalidArgument);  // product 12 != 24
  EXPECT_THROW(wisdom_remember(74, Direction::kForward, {2, 37}),
               InvalidArgument);  // 37 > direct-radix limit
}

TEST_F(WisdomTest, RejectsEvenRadicesWithoutAButterfly) {
  // Only 2, 4 and odd radices have butterflies; 6, 8, ... must not plan.
  EXPECT_THROW(wisdom_remember(24, Direction::kForward, {6, 4}),
               InvalidArgument);
  EXPECT_THROW(wisdom_remember(24, Direction::kForward, {8, 3}),
               InvalidArgument);
  EXPECT_THROW(wisdom_remember(60, Direction::kForward, {10, 6}),
               InvalidArgument);
  EXPECT_FALSE(wisdom_lookup(24, Direction::kForward).has_value());
  EXPECT_NO_THROW(wisdom_remember(24, Direction::kForward, {2, 4, 3}));
  // And a wisdom file carrying one is rejected like any invalid entry.
  std::ofstream(path()) << "# hybridstitch fft wisdom v2\n48 0 -1 8 6\n";
  EXPECT_THROW(wisdom_load(path()), IoError);
}

TEST_F(WisdomTest, MeasuredPlanningRecordsWisdom) {
  EXPECT_EQ(wisdom_size(), 0u);
  Plan1d plan(240, Direction::kForward, Rigor::kMeasure);
  const auto remembered = wisdom_lookup(240, Direction::kForward);
  ASSERT_TRUE(remembered.has_value());
  EXPECT_EQ(*remembered, plan.factors());
}

TEST_F(WisdomTest, PlansUseRememberedOrdering) {
  // A deliberately unusual (but valid) ordering: wisdom must override the
  // planner's heuristic.
  wisdom_remember(24, Direction::kForward, {2, 2, 3, 2});
  Plan1d plan(24, Direction::kForward, Rigor::kPatient);
  EXPECT_EQ(plan.factors(), (std::vector<int>{2, 2, 3, 2}));
  // And the plan must still be correct.
  Rng rng(5);
  std::vector<Complex> x(24), out(24);
  for (auto& v : x) v = Complex(rng.next_double(), rng.next_double());
  plan.execute(x.data(), out.data());
  const auto ref = dft_reference(x, Direction::kForward);
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_LT(std::abs(out[i] - ref[i]), 1e-10);
  }
}

TEST_F(WisdomTest, SaveLoadRoundTrip) {
  wisdom_remember(24, Direction::kForward, {4, 3, 2});
  wisdom_remember(60, Direction::kInverse, {5, 4, 3});
  wisdom_save(path());
  wisdom_clear();
  EXPECT_EQ(wisdom_size(), 0u);
  wisdom_load(path());
  EXPECT_EQ(wisdom_size(), 2u);
  EXPECT_EQ(*wisdom_lookup(24, Direction::kForward),
            (std::vector<int>{4, 3, 2}));
  EXPECT_EQ(*wisdom_lookup(60, Direction::kInverse),
            (std::vector<int>{5, 4, 3}));
}

TEST_F(WisdomTest, LoadRejectsGarbage) {
  std::ofstream(path()) << "not wisdom\n";
  EXPECT_THROW(wisdom_load(path()), IoError);
}

TEST_F(WisdomTest, LoadRejectsCorruptEntry) {
  std::ofstream(path()) << "# hybridstitch fft wisdom v1\n24 0 4 3\n";
  EXPECT_THROW(wisdom_load(path()), IoError);  // 4*3 != 24
  EXPECT_FALSE(wisdom_lookup(24, Direction::kForward).has_value());
}

TEST_F(WisdomTest, LoadRejectsMissingFile) {
  EXPECT_THROW(wisdom_load("/nonexistent/wisdom.txt"), IoError);
}

}  // namespace
}  // namespace hs::fft
