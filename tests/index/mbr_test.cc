#include "src/index/mbr.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace hos::index {
namespace {

using knn::MetricKind;

TEST(MbrTest, EmptyUntilExpanded) {
  Mbr box(2);
  EXPECT_TRUE(box.IsEmpty());
  box.Expand(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_DOUBLE_EQ(box.min(0), 1.0);
  EXPECT_DOUBLE_EQ(box.max(0), 1.0);
}

TEST(MbrTest, ExpandGrowsCover) {
  Mbr box(2);
  box.Expand(std::vector<double>{0.0, 0.0});
  box.Expand(std::vector<double>{2.0, -1.0});
  EXPECT_DOUBLE_EQ(box.min(1), -1.0);
  EXPECT_DOUBLE_EQ(box.max(0), 2.0);
  EXPECT_DOUBLE_EQ(box.Extent(0), 2.0);
}

TEST(MbrTest, ExpandWithMbr) {
  Mbr a = Mbr::OfPoint(std::vector<double>{0.0, 0.0});
  Mbr b = Mbr::OfPoint(std::vector<double>{1.0, 1.0});
  a.Expand(b);
  EXPECT_TRUE(a.ContainsMbr(b));
  EXPECT_DOUBLE_EQ(a.Area(), 1.0);
  // Expanding with an empty box is a no-op.
  Mbr empty(2);
  Mbr before = a;
  a.Expand(empty);
  EXPECT_DOUBLE_EQ(a.Area(), before.Area());
}

TEST(MbrTest, MarginAndArea) {
  Mbr box(2);
  box.Expand(std::vector<double>{0.0, 0.0});
  box.Expand(std::vector<double>{2.0, 3.0});
  EXPECT_DOUBLE_EQ(box.Margin(), 5.0);
  EXPECT_DOUBLE_EQ(box.Area(), 6.0);
}

TEST(MbrTest, IntersectionArea) {
  Mbr a(2), b(2);
  a.Expand(std::vector<double>{0.0, 0.0});
  a.Expand(std::vector<double>{2.0, 2.0});
  b.Expand(std::vector<double>{1.0, 1.0});
  b.Expand(std::vector<double>{3.0, 3.0});
  EXPECT_DOUBLE_EQ(a.IntersectionArea(b), 1.0);
  EXPECT_TRUE(a.Intersects(b));

  Mbr c(2);
  c.Expand(std::vector<double>{5.0, 5.0});
  EXPECT_DOUBLE_EQ(a.IntersectionArea(c), 0.0);
  EXPECT_FALSE(a.Intersects(c));
}

TEST(MbrTest, Containment) {
  Mbr outer(1), inner(1);
  outer.Expand(std::vector<double>{0.0});
  outer.Expand(std::vector<double>{10.0});
  inner.Expand(std::vector<double>{2.0});
  inner.Expand(std::vector<double>{3.0});
  EXPECT_TRUE(outer.ContainsMbr(inner));
  EXPECT_FALSE(inner.ContainsMbr(outer));
  EXPECT_TRUE(outer.ContainsPoint(std::vector<double>{10.0}));
  EXPECT_FALSE(outer.ContainsPoint(std::vector<double>{10.5}));
}

TEST(MbrTest, MinDistanceZeroInside) {
  Mbr box(2);
  box.Expand(std::vector<double>{0.0, 0.0});
  box.Expand(std::vector<double>{1.0, 1.0});
  std::vector<double> inside{0.5, 0.5};
  EXPECT_DOUBLE_EQ(
      box.MinDistance(inside, Subspace::Full(2), MetricKind::kL2), 0.0);
}

TEST(MbrTest, MinDistanceOutside) {
  Mbr box(2);
  box.Expand(std::vector<double>{0.0, 0.0});
  box.Expand(std::vector<double>{1.0, 1.0});
  std::vector<double> q{4.0, 5.0};  // gaps 3 and 4
  EXPECT_DOUBLE_EQ(box.MinDistance(q, Subspace::Full(2), MetricKind::kL2),
                   5.0);
  EXPECT_DOUBLE_EQ(box.MinDistance(q, Subspace::Full(2), MetricKind::kL1),
                   7.0);
  EXPECT_DOUBLE_EQ(box.MinDistance(q, Subspace::Full(2), MetricKind::kLInf),
                   4.0);
}

TEST(MbrTest, MinDistanceRespectsSubspace) {
  Mbr box(2);
  box.Expand(std::vector<double>{0.0, 0.0});
  box.Expand(std::vector<double>{1.0, 1.0});
  std::vector<double> q{4.0, 5.0};
  // Only dim 1 participates: gap 3.
  EXPECT_DOUBLE_EQ(
      box.MinDistance(q, Subspace::FromDims({0}), MetricKind::kL2), 3.0);
}

// MinDistance must lower-bound, MaxDistance upper-bound, the true distance
// to any point inside the box — the correctness requirement of the
// X-tree's leaf filter over every metric and subspace.
TEST(MbrTest, MinMaxDistanceBoundsRandomised) {
  Rng rng(17);
  const int d = 5;
  for (int trial = 0; trial < 200; ++trial) {
    Mbr box(d);
    std::vector<double> lo(d), hi(d);
    for (int j = 0; j < d; ++j) {
      double a = rng.Uniform(-2.0, 2.0), b = rng.Uniform(-2.0, 2.0);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    box.Expand(lo);
    box.Expand(hi);
    // A random point inside the box.
    std::vector<double> inside(d), q(d);
    for (int j = 0; j < d; ++j) {
      inside[j] = rng.Uniform(lo[j], hi[j] + 1e-12);
      q[j] = rng.Uniform(-4.0, 4.0);
    }
    uint64_t mask = rng.UniformInt(1, (1 << d) - 1);
    Subspace s(mask);
    for (MetricKind metric :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLInf}) {
      double dist = knn::SubspaceDistance(q, inside, s, metric);
      EXPECT_LE(box.MinDistance(q, s, metric), dist + 1e-9);
      EXPECT_GE(box.MaxDistance(q, s, metric), dist - 1e-9);
    }
  }
}

TEST(MbrTest, ToStringRenders) {
  Mbr box(1);
  box.Expand(std::vector<double>{1.0});
  box.Expand(std::vector<double>{2.0});
  EXPECT_EQ(box.ToString(), "{[1,2]}");
}

}  // namespace
}  // namespace hos::index
