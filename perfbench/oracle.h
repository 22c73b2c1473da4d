// Brute-force oracle and answer checker of the serving benchmark.
//
// The oracle scores every (user, facility) pair straight from the model's
// definition — point-count service with per-user normalisation: the share
// of a user's points that lie within ψ of at least one stop of the
// facility — by scanning every stop. It uses nothing of the library but
// its data types: no TQ-tree, no stop grid, no kernels. The only shortcut
// is a per-facility bounding box widened by more than ψ, which rejects
// points that cannot be within ψ of any stop and so cannot change a
// served/unserved decision.
#ifndef TQCOVER_PERFBENCH_ORACLE_H_
#define TQCOVER_PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "geom/point.h"
#include "query/topk.h"
#include "traj/dataset.h"

namespace perfbench {

/// Per-user service values against a fixed facility set.
class Oracle {
 public:
  Oracle(const tq::TrajectorySet& facilities, double psi)
      : psi2_(psi * psi) {
    const double margin = psi * 1.01 + 1.0;
    for (uint32_t f = 0; f < facilities.size(); ++f) {
      Facility fac;
      for (const tq::Point& s : facilities.points(f)) {
        fac.xs.push_back(s.x);
        fac.ys.push_back(s.y);
      }
      fac.min_x = *std::min_element(fac.xs.begin(), fac.xs.end()) - margin;
      fac.max_x = *std::max_element(fac.xs.begin(), fac.xs.end()) + margin;
      fac.min_y = *std::min_element(fac.ys.begin(), fac.ys.end()) - margin;
      fac.max_y = *std::max_element(fac.ys.begin(), fac.ys.end()) + margin;
      facilities_.push_back(std::move(fac));
    }
  }

  size_t num_facilities() const { return facilities_.size(); }

  /// S(u, f) for every facility f, in facility order, written to `out`.
  void Row(std::span<const tq::Point> pts, double* out) const {
    for (const Facility& fac : facilities_) {
      size_t served = 0;
      for (const tq::Point& p : pts) {
        if (p.x < fac.min_x || p.x > fac.max_x || p.y < fac.min_y ||
            p.y > fac.max_y) {
          continue;
        }
        for (size_t i = 0; i < fac.xs.size(); ++i) {
          const double dx = p.x - fac.xs[i];
          const double dy = p.y - fac.ys[i];
          if (dx * dx + dy * dy <= psi2_) {
            ++served;
            break;
          }
        }
      }
      *out++ = static_cast<double>(served) / static_cast<double>(pts.size());
    }
  }

  /// Rows for every trajectory of `users`, row-major (user, facility),
  /// computed by `threads` threads over interleaved users.
  std::vector<double> Rows(const tq::TrajectorySet& users,
                           unsigned threads) const {
    const size_t nf = facilities_.size();
    std::vector<double> rows(users.size() * nf);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (uint32_t u = t; u < users.size(); u += threads) {
          Row(users.points(u), &rows[u * nf]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    return rows;
  }

 private:
  struct Facility {
    std::vector<double> xs, ys;
    double min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  };
  double psi2_;
  std::vector<Facility> facilities_;
};

/// Compares served answers against oracle per-facility totals. Sums must
/// match to 1e-9 relative; a top-k answer must hold min(k, |F|) distinct
/// ids whose values are the oracle's k largest, each equal to the oracle's
/// value for that id.
class Checker {
 public:
  static constexpr double kRelTol = 1e-9;

  static bool Close(double got, double want) {
    return got == want ||
           std::fabs(got - want) <= kRelTol * std::fabs(want);
  }

  /// `totals[f]` = oracle SO(U, f) for the snapshot the answer was read at.
  static bool SumOk(const std::vector<double>& totals, uint32_t facility,
                    double value) {
    return facility < totals.size() && Close(value, totals[facility]);
  }

  static bool TopKOk(const std::vector<double>& totals, size_t k,
                     const std::vector<tq::RankedFacility>& ranked) {
    std::vector<double> want = totals;
    std::sort(want.begin(), want.end(), std::greater<double>());
    const size_t n = std::min(k, want.size());
    if (ranked.size() != n) return false;
    std::vector<bool> seen(totals.size(), false);
    for (size_t i = 0; i < n; ++i) {
      const tq::RankedFacility& r = ranked[i];
      if (r.id >= totals.size() || seen[r.id]) return false;
      seen[r.id] = true;
      if (!Close(r.value, totals[r.id]) || !Close(r.value, want[i])) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace perfbench

#endif  // TQCOVER_PERFBENCH_ORACLE_H_
