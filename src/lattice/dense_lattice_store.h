// DenseLatticeStore: the flat-array lattice backend — one byte of state per
// subspace (2^d total) plus materialised per-level undecided vectors.
// Constant-time state lookup, but every propagation sweeps the undecided
// vectors and construction materialises all 2^d masks, so MakeLatticeStore
// builds it only when asked for (LatticeBackend::kDense, d <= kDenseMaxDims).

#ifndef HOS_LATTICE_DENSE_LATTICE_STORE_H_
#define HOS_LATTICE_DENSE_LATTICE_STORE_H_

#include <cstdint>
#include <vector>

#include "src/lattice/lattice_store.h"

namespace hos::lattice {

class DenseLatticeStore final : public LatticeStore {
 public:
  /// Fresh lattice over d dimensions, everything undecided. Requires
  /// 1 <= d <= kDenseMaxDims (enforced by MakeLatticeStore).
  explicit DenseLatticeStore(int num_dims);

  std::string_view name() const override { return "dense"; }

  SubspaceState StateOf(const Subspace& s) const override {
    return static_cast<SubspaceState>(state_[s.mask()]);
  }

  void Propagate() override;

  void ForEachUndecided(
      int m, const std::function<void(uint64_t)>& fn) const override;

 protected:
  void RecordEvaluated(uint64_t mask, SubspaceState state) override {
    state_[mask] = static_cast<uint8_t>(state);
  }

 private:
  std::vector<uint8_t> state_;                    // indexed by mask
  std::vector<std::vector<uint64_t>> undecided_;  // per level, lazily filtered
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_DENSE_LATTICE_STORE_H_
