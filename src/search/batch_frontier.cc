#include "src/search/batch_frontier.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/filter/density_filter.h"
#include "src/filter/filter_gate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/search/frontier_support.h"
#include "src/service/thread_pool.h"

namespace hos::search {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One point's walk state. The counters and the round state are private
/// to the point, and so is every lattice state it writes: it reads a
/// shared, immutable reference lattice until its verdicts leave the
/// reference states, then a store of its own (see batch_frontier.h). The
/// only thing the block shares is the engine pass that computes coinciding
/// OD values (and, optionally, the cross-query store), neither of which
/// feeds the point's decisions anything but bitwise-exact OD doubles.
struct PointRun {
  OdEvaluator* od = nullptr;
  // The lattice the walk reads: a reference lattice while `own` is null,
  // else `own`.
  const lattice::LatticeStore* state = nullptr;
  std::unique_ptr<lattice::LatticeStore> own;
  uint64_t od_before = 0;
  uint64_t dist_before = 0;
  uint64_t steps = 0;
  uint64_t bound_decisions = 0;
  uint64_t risky_decisions = 0;
  double bound_gap = 0.0;
  uint64_t gate_skips = 0;
  bool done = false;
  // The round in flight: its level, the level's undecided masks in
  // canonical order and their values (NaN until resolved).
  int level = 0;
  std::vector<uint64_t> wave;
  std::vector<double> values;
};

/// One (point, wave slot) of a round whose OD must come from the shared
/// store or the kNN engine.
struct Pending {
  uint64_t mask;
  size_t slot;    // index into the point's wave
  double margin;  // filter bound margin: dispatch priority only
  double value;
  uint32_t point;  // index into the block's runs
  OdEvaluator::ValueSource source;
};

/// The pending entries [begin, end) that share one mask.
struct MaskGroup {
  size_t begin;
  size_t end;
  double margin;  // widest member margin
};

/// Buffers one evaluating thread reuses across the groups it serves.
struct GroupBuffers {
  std::vector<size_t> probe;
  std::vector<SharedOdStore::OdKey> keys;
  std::vector<double> values;
  std::vector<uint8_t> found;
  std::vector<size_t> compute;
  std::vector<knn::BatchPointQuery> queries;
};

std::string KnnDetail(uint64_t mask, size_t points) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "mask=0x%llx points=%zu",
                static_cast<unsigned long long>(mask), points);
  return buf;
}

/// Resolves one distinct mask for every member of `group`, writing only
/// the group's pending entries — so distinct groups may be evaluated
/// concurrently: the engine is const and the shared store is thread-safe
/// by contract. Each mask takes one multi-probe of the store, ONE fused
/// kNN pass for the misses and one multi-store write-back — the fusion
/// recovers B-1 index traversals per coinciding subspace.
void EvaluateGroup(const MaskGroup& group, std::span<Pending> pending,
                   std::span<const PointRun> runs, obs::QueryTracer* tracer,
                   int trace_parent, GroupBuffers* s) {
  const uint64_t mask = pending[group.begin].mask;
  s->probe.clear();
  s->keys.clear();
  s->compute.clear();
  SharedOdStore* store = nullptr;
  for (size_t j = group.begin; j < group.end; ++j) {
    const OdEvaluator& od = *runs[pending[j].point].od;
    if (od.shareable()) {
      s->probe.push_back(j);
      s->keys.push_back({*od.exclude(), mask});
      store = od.shared_store();
    } else {
      s->compute.push_back(j);
    }
  }
  if (!s->keys.empty()) {
    s->values.assign(s->keys.size(), 0.0);
    s->found.assign(s->keys.size(), 0);
    store->LookupMulti(s->keys, s->values, s->found);
    for (size_t t = 0; t < s->probe.size(); ++t) {
      if (s->found[t]) {
        pending[s->probe[t]].value = s->values[t];
        pending[s->probe[t]].source =
            OdEvaluator::ValueSource::kSharedStoreHit;
      } else {
        s->compute.push_back(s->probe[t]);
      }
    }
  }
  if (s->compute.empty()) return;

  s->queries.clear();
  for (size_t j : s->compute) {
    const OdEvaluator& od = *runs[pending[j].point].od;
    s->queries.push_back({od.point(), od.exclude()});
  }
  const OdEvaluator& lead = *runs[pending[s->compute.front()].point].od;
  std::vector<double> fresh;
  {
    obs::ScopedSpan knn_span(
        tracer, "knn", trace_parent,
        tracer != nullptr ? KnnDetail(mask, s->queries.size())
                          : std::string());
    fresh = knn::OutlyingDegreeBatch(lead.engine(), s->queries,
                                     Subspace(mask), lead.k());
  }
  s->keys.clear();
  s->values.clear();
  for (size_t t = 0; t < s->compute.size(); ++t) {
    Pending& p = pending[s->compute[t]];
    p.value = fresh[t];
    const OdEvaluator& od = *runs[p.point].od;
    if (od.shareable()) {
      s->keys.push_back({*od.exclude(), mask});
      s->values.push_back(fresh[t]);
    }
  }
  if (!s->keys.empty()) store->StoreMulti(s->keys, s->values);
}

/// Evaluates every group: inline without a pool (reusing `buffers`), or on
/// exec.pool in deterministic chunks of about four per worker, so a
/// straggling chunk rebalances. Chunk boundaries depend only on the group
/// count and the concurrency, and each group writes only its own pending
/// entries, so which task runs which chunk cannot reach any result.
void EvaluateGroups(std::span<const MaskGroup> groups,
                    std::span<Pending> pending,
                    std::span<const PointRun> runs,
                    const SearchExecution& exec, int trace_parent,
                    GroupBuffers* buffers) {
  size_t workers = 1;
  if (exec.pool != nullptr) {
    const int width = exec.pool->num_threads();
    workers = static_cast<size_t>(std::max(
        1, exec.max_threads > 0 ? std::min(exec.max_threads, width) : width));
  }
  if (workers <= 1 || groups.size() < 2) {
    for (const MaskGroup& group : groups) {
      EvaluateGroup(group, pending, runs, exec.tracer, trace_parent, buffers);
    }
    return;
  }
  const size_t chunk =
      std::max<size_t>(1, (groups.size() + workers * 4 - 1) / (workers * 4));
  const size_t num_chunks = (groups.size() + chunk - 1) / chunk;
  std::atomic<size_t> next_chunk{0};
  auto drain_chunks = [&]() {
    GroupBuffers local;
    for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks;
         c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      const size_t end = std::min(groups.size(), (c + 1) * chunk);
      for (size_t g = c * chunk; g < end; ++g) {
        EvaluateGroup(groups[g], pending, runs, exec.tracer, trace_parent,
                      &local);
      }
    }
  };
  const size_t num_tasks = std::min(workers, num_chunks);
  std::vector<std::future<void>> done;
  done.reserve(num_tasks);
  // Submission must not unwind while earlier tasks still reference this
  // frame; on failure, drain what was queued before rethrowing.
  try {
    for (size_t t = 0; t < num_tasks; ++t) {
      done.push_back(exec.pool->SubmitWithResult(drain_chunks));
    }
  } catch (...) {
    next_chunk.store(num_chunks, std::memory_order_relaxed);
    for (std::future<void>& f : done) f.wait();
    throw;
  }
  // wait() everything before get(): get() can rethrow, and unwinding while
  // other workers still write into `pending` would be a use-after-free.
  for (std::future<void>& f : done) f.wait();
  for (std::future<void>& f : done) f.get();
}

}  // namespace

std::string_view BatchFrontierRunner::name() const {
  switch (order_) {
    case LevelOrder::kSavingFactor:
      return "dynamic";
    case LevelOrder::kBottomUp:
      return "bottom-up";
    case LevelOrder::kTopDown:
      return "top-down";
  }
  return "dynamic";
}

int BatchFrontierRunner::NextLevel(const lattice::LatticeStore& state) const {
  switch (order_) {
    case LevelOrder::kSavingFactor:
      return lattice::BestLevel(*priors_, state);
    case LevelOrder::kBottomUp:
      for (int m = 1; m <= num_dims_; ++m) {
        if (state.UndecidedCount(m) != 0) return m;
      }
      return 0;
    case LevelOrder::kTopDown:
      for (int m = num_dims_; m >= 1; --m) {
        if (state.UndecidedCount(m) != 0) return m;
      }
      return 0;
  }
  return 0;
}

std::vector<Result<SearchOutcome>> BatchFrontierRunner::Run(
    std::span<OdEvaluator* const> ods, double threshold,
    const SearchExecution& exec) const {
  if (order_ == LevelOrder::kSavingFactor &&
      priors_->num_dims() != num_dims_) {
    // Mis-sized priors would index out of bounds in BestLevel's TSF
    // arithmetic; they come from callers' learning reports, so this is an
    // input error.
    const Status bad = Status::InvalidArgument(
        "pruning priors cover " + std::to_string(priors_->num_dims()) +
        " dimensions but the search runs over " + std::to_string(num_dims_));
    return std::vector<Result<SearchOutcome>>(ods.size(), bad);
  }
  const bool filter_active =
      exec.filter != nullptr && exec.filter_mode != filter::FilterMode::kOff;
  const bool order_by_margin =
      exec.frontier_ordering == FrontierOrdering::kBoundMargin &&
      filter_active;

  // Every walk starts on the shared fresh lattice. The configuration is
  // still checked by MakeLatticeStore's rules, so a forced dense backend
  // past its cap fails each point before any evaluation.
  const Status lattice_config =
      lattice::ValidateLatticeStoreConfig(num_dims_, exec.lattice_backend);

  Timer timer;
  std::vector<std::optional<Result<SearchOutcome>>> slots(ods.size());
  std::vector<PointRun> runs(ods.size());
  size_t live = 0;
  for (size_t q = 0; q < ods.size(); ++q) {
    PointRun& run = runs[q];
    run.od = ods[q];
    run.od_before = run.od->num_evaluations();
    run.dist_before = run.od->engine().distance_computations();
    if (!lattice_config.ok()) {
      slots[q] = lattice_config;
      run.done = true;
      continue;
    }
    run.state = &lattice::FreshLattice(num_dims_);
    ++live;
  }

  obs::ScopedSpan strategy_span(
      exec.tracer, name(), exec.trace_parent,
      exec.tracer != nullptr ? "points=" + std::to_string(ods.size())
                             : std::string());

  std::vector<Pending> pending;
  std::vector<MaskGroup> groups;
  GroupBuffers buffers;
  while (true) {
    // Each live point picks its next level; a decided lattice retires with
    // its outcome, and a level that would overrun the budget retires with
    // the budget error.
    for (size_t q = 0; q < runs.size(); ++q) {
      PointRun& run = runs[q];
      if (run.done) continue;
      run.level = NextLevel(*run.state);
      if (run.level == 0) {
        slots[q] = internal::AssembleOutcome(
            *run.state, threshold, *run.od, run.od_before, run.dist_before,
            run.steps, timer, run.bound_decisions, run.risky_decisions,
            run.bound_gap, run.gate_skips);
      } else if (Status budget = internal::CheckSearchBudget(
                     exec, *run.od, run.od_before, run.level,
                     run.state->UndecidedCount(run.level));
                 !budget.ok()) {
        slots[q] = std::move(budget);
      } else {
        continue;
      }
      run.done = true;
      --live;
    }
    if (live == 0) break;

    pending.clear();
    groups.clear();
    obs::ScopedSpan wave_span(
        exec.tracer, "wave", strategy_span.id(),
        exec.tracer != nullptr ? "points=" + std::to_string(live)
                               : std::string());

    // Phase 1 — per point: materialise the wave and resolve what the memo
    // and the density filter can (memo first, then filter). Filter
    // verdicts enter the lattice as ±inf threshold sentinels: the store
    // keeps only od >= T, so in conservative mode the lattice evolves
    // exactly as it would with the filter off.
    for (size_t q = 0; q < runs.size(); ++q) {
      PointRun& run = runs[q];
      if (run.done) continue;
      const int m = run.level;
      run.wave = run.state->UndecidedMasks(m);
      run.values.assign(run.wave.size(),
                        std::numeric_limits<double>::quiet_NaN());
      for (size_t i = 0; i < run.wave.size(); ++i) {
        const uint64_t mask = run.wave[i];
        if (run.od->LookupLocal(mask, &run.values[i])) continue;
        double margin = -kInf;
        if (filter_active) {
          // Learned gate: skip the expensive refined tier at levels where
          // it has historically decided ~nothing. A false return on a
          // closed gate is the periodic probe — the consult runs (and is
          // recorded) so the gate can re-open if the data regime shifts.
          const bool allow_refined =
              exec.filter_gate == nullptr ||
              !exec.filter_gate->ShouldSkipRefined(m);
          const filter::FilterDecision fd = exec.filter->Decide(
              run.od->point(), mask, run.od->k(), run.od->exclude(),
              threshold, exec.filter_mode, exec.filter_speculative_slack,
              allow_refined);
          if (exec.filter_gate != nullptr &&
              fd.tier == filter::FilterDecision::Tier::kRefined) {
            exec.filter_gate->RecordRefined(m, fd.decided());
          }
          if (exec.margin_histogram != nullptr &&
              fd.tier != filter::FilterDecision::Tier::kNone) {
            exec.margin_histogram->Record(fd.Margin(threshold));
          }
          if (fd.decided()) {
            run.values[i] =
                fd.verdict == filter::FilterDecision::Verdict::kOutlier
                    ? kInf
                    : -kInf;
            ++run.bound_decisions;
            if (fd.risky) {
              ++run.risky_decisions;
              run.bound_gap = std::max(run.bound_gap, fd.gap());
            }
            continue;
          }
          // A skipped refined pass on an undecided mask is the work the
          // gate saved; the mask takes the exact path either way.
          if (!allow_refined &&
              fd.tier != filter::FilterDecision::Tier::kRefined) {
            ++run.gate_skips;
          }
          if (fd.tier != filter::FilterDecision::Tier::kNone) {
            margin = fd.Margin(threshold);
          }
        }
        pending.push_back({mask, i, margin, 0.0, static_cast<uint32_t>(q),
                           OdEvaluator::ValueSource::kComputed});
      }
    }

    // Phase 2 — per distinct mask. Entries sort into canonical (mask,
    // point) order, so each mask's members are contiguous and the engine,
    // the tracer and the store see a deterministic order. Under the
    // bound-margin ordering, groups dispatch widest margin first (stable on
    // mask); per-mask work is self-contained, so the order only schedules
    // execution.
    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                return a.mask != b.mask ? a.mask < b.mask : a.point < b.point;
              });
    for (size_t j = 0; j < pending.size();) {
      MaskGroup group{j, j, -kInf};
      for (; group.end < pending.size() &&
             pending[group.end].mask == pending[j].mask;
           ++group.end) {
        group.margin = std::max(group.margin, pending[group.end].margin);
      }
      groups.push_back(group);
      j = group.end;
    }
    if (order_by_margin) {
      std::stable_sort(groups.begin(), groups.end(),
                       [](const MaskGroup& a, const MaskGroup& b) {
                         return a.margin > b.margin;
                       });
    }
    EvaluateGroups(groups, pending, runs, exec, wave_span.id(), &buffers);

    // Every value lands in its point's memo on this thread, in canonical
    // mask order: a point's memo is not thread-safe, and two of its masks
    // may have been evaluated by different pool tasks.
    for (const Pending& p : pending) {
      PointRun& run = runs[p.point];
      run.od->Deposit(p.mask, p.value, p.source);
      run.values[p.slot] = p.value;
    }

    // Phase 3 — per participating point: merge the wave in canonical mask
    // order (the seed sequence a one-point walk produces), then propagate
    // both pruning directions. A walk still on the fresh lattice writes
    // nothing shared: a full-space non-outlier verdict (the test
    // MarkEvaluatedBatch applies) moves it to the reference lattice those
    // same calls build, and any other verdict gets it a store of its own.
    for (PointRun& run : runs) {
      if (run.done) continue;
      assert(std::none_of(run.values.begin(), run.values.end(),
                          [](double v) { return std::isnan(v); }));
      ++run.steps;
      if (run.own == nullptr) {
        assert(run.state == &lattice::FreshLattice(num_dims_));
        if (run.level == num_dims_ && !(run.values.front() >= threshold)) {
          assert(run.wave.size() == 1);
          run.state = &lattice::FullSpaceInlierLattice(num_dims_);
          continue;
        }
        run.own =
            lattice::MakeLatticeStore(num_dims_, exec.lattice_backend).value();
        run.state = run.own.get();
      }
      run.own->MarkEvaluatedBatch(run.wave, run.values, threshold);
      run.own->Propagate();
    }
  }

  std::vector<Result<SearchOutcome>> out;
  out.reserve(slots.size());
  for (std::optional<Result<SearchOutcome>>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace hos::search
