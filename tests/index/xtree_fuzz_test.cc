// Configuration fuzzing for the X-tree: across node capacities, overlap
// thresholds, supernode caps, data shapes and metrics, the tree must keep
// its structural invariants and agree with the linear-scan oracle.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "src/knn/linear_scan.h"

namespace hos::index {
namespace {

using knn::KnnQuery;
using knn::MetricKind;

struct FuzzParam {
  int max_entries;
  double max_overlap_ratio;
  int max_supernode_factor;
  bool clustered;
  MetricKind metric;
};

class XTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(XTreeFuzzTest, InvariantsAndOracleAgreement) {
  const FuzzParam param = GetParam();
  Rng rng(static_cast<uint64_t>(param.max_entries) * 1000 +
          static_cast<uint64_t>(param.max_overlap_ratio * 100));
  const int d = 7;

  data::Dataset ds(d);
  if (param.clustered) {
    data::GaussianMixtureSpec spec;
    spec.num_points = 900;
    spec.num_dims = d;
    spec.num_clusters = 5;
    spec.cluster_stddev = 0.08;
    ds = data::GenerateGaussianMixture(spec, &rng);
  } else {
    ds = data::GenerateUniform(900, d, &rng);
  }

  XTreeConfig config;
  config.max_entries = param.max_entries;
  config.max_overlap_ratio = param.max_overlap_ratio;
  config.max_supernode_factor = param.max_supernode_factor;

  auto tree = XTree::BuildByInsertion(ds, param.metric, config);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());

  knn::LinearScanKnn oracle(ds, param.metric);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<double> q(d);
    for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
    KnnQuery query;
    query.point = q;
    query.subspace = Subspace(rng.UniformInt(1, (1 << d) - 1));
    query.k = 1 + static_cast<int>(rng.UniformInt(0, 11));
    auto got = tree->Knn(query);
    auto want = oracle.Search(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, XTreeFuzzTest,
    ::testing::Values(
        FuzzParam{8, 0.2, 64, false, MetricKind::kL2},
        FuzzParam{8, 0.01, 4, true, MetricKind::kL2},   // eager supernodes, tight cap
        FuzzParam{64, 0.2, 64, false, MetricKind::kL2},
        FuzzParam{16, 0.9, 64, true, MetricKind::kL2},  // splits almost always accepted
        FuzzParam{16, 0.2, 64, true, MetricKind::kL1},
        FuzzParam{16, 0.2, 64, false, MetricKind::kLInf}),
    [](const auto& info) {
      return "M" + std::to_string(info.param.max_entries) + "_ov" +
             std::to_string(
                 static_cast<int>(info.param.max_overlap_ratio * 100)) +
             "_cap" + std::to_string(info.param.max_supernode_factor) +
             (info.param.clustered ? "_clustered" : "_uniform") + "_" +
             std::string(knn::MetricKindToString(info.param.metric));
    });

}  // namespace
}  // namespace hos::index
