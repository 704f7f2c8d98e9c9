#include "alloc/replica_batch.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.hh"
#include "util/stats.hh"

namespace dpc {

ReplicaBatch::ReplicaBatch(Graph topology, AllocationProblem prob,
                           std::vector<ReplicaSpec> specs,
                           DibaAllocator::Config cfg)
    : topo_(std::move(topology)), prob_(std::move(prob)),
      specs_(std::move(specs)), cfg_(cfg),
      kp_(kernelParamsOf(cfg)), n_(topo_.numVertices())
{
    DPC_ASSERT(!specs_.empty(), "ReplicaBatch needs >= 1 replica");
    DPC_ASSERT(n_ >= 2, "DiBA needs at least two nodes");
    DPC_ASSERT(topo_.isConnected(),
               "DiBA requires a connected communication graph");
    DPC_ASSERT(prob_.size() == n_, "problem size ", prob_.size(),
               " != topology size ", n_);

    // Canonical undirected edge list (u < v order, the same
    // enumeration DibaAllocator uses) plus the slot -> edge map so
    // both endpoints of a directed CSR slot pair agree on one fate
    // byte per lane per round.
    for (std::size_t v = 0; v < n_; ++v)
        for (std::size_t u : topo_.neighbors(v))
            if (v < u)
                edges_.emplace_back(
                    static_cast<std::uint32_t>(v),
                    static_cast<std::uint32_t>(u));
    const GraphCsr &g = topo_.csr();
    w_.resize(g.neighbors.size());
    for (std::size_t v = 0; v < n_; ++v) {
        for (std::uint32_t k = g.offsets[v]; k < g.offsets[v + 1];
             ++k) {
            const std::uint32_t j = g.neighbors[k];
            w_[k] = 1.0 / (1.0 + static_cast<double>(std::max(
                                     g.degree(v), g.degree(j))));
        }
    }
    slot_edge_.resize(g.neighbors.size());
    {
        // Edge ids in (min, max) order match the enumeration above
        // because CSR neighbor lists are ascending.
        std::vector<std::uint32_t> cursor(n_, 0);
        std::vector<std::vector<std::uint32_t>> by_lo(n_);
        for (std::uint32_t id = 0;
             id < static_cast<std::uint32_t>(edges_.size()); ++id)
            by_lo[edges_[id].first].push_back(id);
        for (std::size_t v = 0; v < n_; ++v) {
            for (std::uint32_t k = g.offsets[v];
                 k < g.offsets[v + 1]; ++k) {
                const std::uint32_t j = g.neighbors[k];
                const std::uint32_t lo =
                    static_cast<std::uint32_t>(std::min<
                        std::size_t>(v, j));
                const std::uint32_t hi =
                    static_cast<std::uint32_t>(std::max<
                        std::size_t>(v, j));
                std::uint32_t found =
                    std::numeric_limits<std::uint32_t>::max();
                for (std::uint32_t id : by_lo[lo]) {
                    if (edges_[id].second == hi) {
                        found = id;
                        break;
                    }
                }
                DPC_ASSERT(found != std::numeric_limits<
                               std::uint32_t>::max(),
                           "CSR slot without a canonical edge");
                slot_edge_[k] = found;
            }
        }
    }

    const std::size_t R = specs_.size();
    budget_.resize(R);
    rng_.reserve(R);
    for (std::size_t r = 0; r < R; ++r) {
        budget_[r] = specs_[r].budget > 0.0 ? specs_[r].budget
                                            : prob_.budget;
        DPC_ASSERT(budget_[r] > prob_.minTotalPower(),
                   "lane ", r,
                   " budget lacks strict interior feasibility");
        DPC_ASSERT(specs_[r].drop_rate >= 0.0 &&
                       specs_[r].drop_rate < 1.0,
                   "lane ", r, " drop rate out of [0, 1)");
        rng_.emplace_back(specs_[r].seed);
        any_drop_ = any_drop_ || specs_[r].drop_rate > 0.0;
    }

    // Per-lane coefficient copies: the batch requires all-quadratic
    // utilities (it is the batched analogue of the devirtualized
    // fast path), and per-lane copies let one lane's utilities be
    // perturbed without forking the whole batch.
    qb_.resize(n_ * R);
    qc_.resize(n_ * R);
    qlo_.resize(n_ * R);
    qhi_.resize(n_ * R);
    for (std::size_t i = 0; i < n_; ++i) {
        const auto *q = dynamic_cast<const QuadraticUtility *>(
            prob_.utilities[i].get());
        DPC_ASSERT(q != nullptr,
                   "ReplicaBatch requires quadratic utilities");
        for (std::size_t r = 0; r < R; ++r) {
            qb_[at(i, r)] = q->coeffB();
            qc_[at(i, r)] = q->coeffC();
            qlo_[at(i, r)] = q->minPower();
            qhi_[at(i, r)] = q->maxPower();
        }
    }

    p_.resize(n_ * R);
    e_.resize(n_ * R);
    e_snap_.resize(n_ * R);
    eta_.resize(n_ * R);
    fates_.resize(edges_.size() * R);
    acc_.resize(R);
    lane_scratch_.resize(n_);
    lane_moved_.assign(R, 0.0);
    lane_quiet_.assign(R, 0);
    lane_shed_.assign(R, ShedOutcome{});
    lane_drops_.assign(R, 0);
    reset();
}

void
ReplicaBatch::reset()
{
    const std::size_t R = specs_.size();
    // The uniform start depends only on the shared problem, so all
    // lanes begin from the same caps; the lane budgets then split
    // the trajectories through e0.
    const std::vector<double> p0 =
        uniformStart(prob_, cfg_.slack_frac);
    const double p0_sum = sum(p0);
    for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t r = 0; r < R; ++r)
            p_[at(i, r)] = p0[i];
    for (std::size_t r = 0; r < R; ++r) {
        const double e0 =
            (p0_sum - budget_[r]) / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_; ++i) {
            e_[at(i, r)] = e0;
            eta_[at(i, r)] = cfg_.eta_initial;
        }
        lane_moved_[r] = 0.0;
        lane_quiet_[r] = 0;
        if (e0 >= 0.0)
            shedLane(r);
        lane_drops_[r] = 0;
    }
    rounds_ = 0;
    fate_rounds_ = 0;
}

void
ReplicaBatch::seedFrom(const std::vector<double> &power)
{
    DPC_ASSERT(power.size() == n_, "seed snapshot size ",
               power.size(), " != cluster size ", n_);
    const std::size_t R = specs_.size();
    for (std::size_t r = 0; r < R; ++r) {
        double lane_sum = 0.0;
        for (std::size_t i = 0; i < n_; ++i) {
            const double c = std::clamp(power[i], qlo_[at(i, r)],
                                        qhi_[at(i, r)]);
            p_[at(i, r)] = c;
            lane_sum += c;
        }
        const double e0 =
            (lane_sum - budget_[r]) / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_; ++i) {
            e_[at(i, r)] = e0;
            // A settled allocation needs no wide-open barrier;
            // start at the floor like a warm re-entry.
            eta_[at(i, r)] = kp_.eta_floor;
        }
        lane_moved_[r] = 0.0;
        lane_quiet_[r] = 0;
        if (e0 >= 0.0)
            shedLane(r);
        lane_drops_[r] = 0;
    }
    rounds_ = 0;
    fate_rounds_ = 0;
}

void
ReplicaBatch::drawFates()
{
    const std::size_t R = specs_.size();
    // Edge-major, lane-inner; each lane's stream draws in canonical
    // edge order, so a lane's fault pattern depends only on its own
    // (seed, drop_rate) regardless of which other lanes share the
    // batch.
    for (std::size_t id = 0; id < edges_.size(); ++id) {
        std::uint8_t *f = fates_.data() + id * R;
        for (std::size_t r = 0; r < R; ++r) {
            const double rate = specs_[r].drop_rate;
            f[r] = rate > 0.0 && rng_[r].bernoulli(rate) ? 0 : 1;
            lane_drops_[r] += f[r] == 0 ? 1 : 0;
        }
    }
    ++fate_rounds_;
}

double
ReplicaBatch::lossRate(std::size_t r) const
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    const std::size_t draws = edges_.size() * fate_rounds_;
    if (draws == 0)
        return 0.0;
    return static_cast<double>(lane_drops_[r]) /
           static_cast<double>(draws);
}

double
ReplicaBatch::stepAll()
{
    const std::size_t R = specs_.size();
    e_snap_.swap(e_);
    if (any_drop_)
        drawFates();

    // One synchronized round, node-major with the R lanes innermost:
    // the CSR walk, weight loads and loop control are paid once per
    // node for the whole batch, and the per-lane accumulate /
    // quadNodeDp / annealEta bodies run over contiguous lane rows
    // the compiler can vectorize.  Per lane the arithmetic is, slot
    // for slot, the dense round of DibaAllocator (gather in CSR slot
    // order, e_now = snapshot + acc, fused step + anneal), so a
    // perfect-channel lane is bitwise identical to a standalone run.
    const GraphCsr &g = topo_.csr();
    const std::uint32_t *DPC_RESTRICT offs = g.offsets.data();
    const std::uint32_t *DPC_RESTRICT nbr = g.neighbors.data();
    const std::uint32_t *DPC_RESTRICT sedge = slot_edge_.data();
    const double *DPC_RESTRICT w = w_.data();
    const double *DPC_RESTRICT snap = e_snap_.data();
    const std::uint8_t *DPC_RESTRICT fates = fates_.data();
    double *DPC_RESTRICT p = p_.data();
    double *DPC_RESTRICT e = e_.data();
    double *DPC_RESTRICT eta = eta_.data();
    const double *DPC_RESTRICT qb = qb_.data();
    const double *DPC_RESTRICT qc = qc_.data();
    const double *DPC_RESTRICT qlo = qlo_.data();
    const double *DPC_RESTRICT qhi = qhi_.data();
    double *DPC_RESTRICT acc = acc_.data();
    double *DPC_RESTRICT moved = lane_moved_.data();

    for (std::size_t r = 0; r < R; ++r)
        moved[r] = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t base = i * R;
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = 0.0;
        const std::uint32_t khi = offs[i + 1];
        if (any_drop_) {
            for (std::uint32_t k = offs[i]; k < khi; ++k) {
                const std::size_t jb =
                    static_cast<std::size_t>(nbr[k]) * R;
                const double wk = w[k];
                const std::uint8_t *DPC_RESTRICT f =
                    fates + static_cast<std::size_t>(sedge[k]) * R;
                // A dropped pair contributes nothing on either
                // side: both endpoints consult the same fate byte,
                // so the paired transfers cancel exactly and
                // sum(e) is conserved bit-exactly per lane.
                for (std::size_t r = 0; r < R; ++r)
                    if (f[r])
                        acc[r] +=
                            wk * (snap[jb + r] - snap[base + r]);
            }
        } else {
            for (std::uint32_t k = offs[i]; k < khi; ++k) {
                const std::size_t jb =
                    static_cast<std::size_t>(nbr[k]) * R;
                const double wk = w[k];
                for (std::size_t r = 0; r < R; ++r)
                    acc[r] +=
                        wk * (snap[jb + r] - snap[base + r]);
            }
        }
        for (std::size_t r = 0; r < R; ++r) {
            const double e_now = snap[base + r] + acc[r];
            const double p_now = p[base + r];
            const double dp = quadNodeDp(
                p_now, e_now, eta[base + r], qb[base + r],
                qc[base + r], qlo[base + r], qhi[base + r], kp_);
            p[base + r] = p_now + dp;
            e[base + r] = e_now + dp;
            const double m = std::fabs(dp);
            moved[r] = std::max(moved[r], m);
            eta[base + r] = annealEta(eta[base + r], m, kp_);
        }
    }

    double max_moved = 0.0;
    for (std::size_t r = 0; r < R; ++r) {
        if (moved[r] < cfg_.tolerance)
            ++lane_quiet_[r];
        else
            lane_quiet_[r] = 0;
        max_moved = std::max(max_moved, moved[r]);
    }
    ++rounds_;
    return max_moved;
}

bool
ReplicaBatch::allConverged() const
{
    for (std::size_t r = 0; r < specs_.size(); ++r)
        if (!converged(r))
            return false;
    return true;
}

void
ReplicaBatch::setUtility(std::size_t r, std::size_t i,
                         const QuadraticUtility &u)
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    DPC_ASSERT(i < n_, "setUtility index out of range");
    const std::size_t s = at(i, r);
    qb_[s] = u.coeffB();
    qc_[s] = u.coeffC();
    qlo_[s] = u.minPower();
    qhi_[s] = u.maxPower();
    // Same event semantics as DibaAllocator::setUtility: clamp the
    // cap into the new box and charge the move to the local
    // estimate so the lane invariant sum(e) == sum(p) - P holds
    // across the swap.
    const double clamped = std::clamp(p_[s], qlo_[s], qhi_[s]);
    e_[s] += clamped - p_[s];
    p_[s] = clamped;
    lane_quiet_[r] = 0;
}

void
ReplicaBatch::setBudget(std::size_t r, double new_budget)
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    DPC_ASSERT(new_budget > 0.0, "non-positive budget");
    const double delta = new_budget - budget_[r];
    const double shift = delta / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i)
        e_[at(i, r)] -= shift;
    budget_[r] = new_budget;
    lane_quiet_[r] = 0;
    if (delta < 0.0)
        shedLane(r);
}

void
ReplicaBatch::diffuseLane(std::size_t r)
{
    const std::size_t R = specs_.size();
    const GraphCsr &g = topo_.csr();
    for (std::size_t i = 0; i < n_; ++i)
        lane_scratch_[i] = e_[at(i, r)];
    for (std::size_t i = 0; i < n_; ++i) {
        const double ei = lane_scratch_[i];
        double acc = 0.0;
        const std::uint32_t khi = g.offsets[i + 1];
        for (std::uint32_t k = g.offsets[i]; k < khi; ++k)
            acc += w_[k] * (lane_scratch_[g.neighbors[k]] - ei);
        e_[i * R + r] = ei + acc;
    }
}

void
ReplicaBatch::shedLane(std::size_t r)
{
    // DibaAllocator::emergencyShed restricted to one lane, under the
    // same stop rule: shed locally, diffuse the lane, repeat until
    // every node is safely under the line or the excess stalls.
    lane_shed_[r] = runEmergencyShed(n_, [&](bool diffuse) {
        if (diffuse)
            diffuseLane(r);
        double sum = 0.0;
        double max = 0.0;
        for (std::size_t i = 0; i < n_; ++i) {
            const std::size_t s = at(i, r);
            if (e_[s] > -kShedFloor) {
                emergencyShedStep(p_[s], e_[s], qlo_[s]);
                const double x = std::max(0.0, e_[s] + kShedFloor);
                sum += x;
                max = std::max(max, x);
            }
        }
        return ShedExcess{sum, max};
    });
}

std::vector<double>
ReplicaBatch::powerOf(std::size_t r) const
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    std::vector<double> out(n_);
    for (std::size_t i = 0; i < n_; ++i)
        out[i] = p_[at(i, r)];
    return out;
}

std::vector<double>
ReplicaBatch::estimatesOf(std::size_t r) const
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    std::vector<double> out(n_);
    for (std::size_t i = 0; i < n_; ++i)
        out[i] = e_[at(i, r)];
    return out;
}

double
ReplicaBatch::totalPower(std::size_t r) const
{
    DPC_ASSERT(r < specs_.size(), "replica index out of range");
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
        acc += p_[at(i, r)];
    return acc;
}

} // namespace dpc
