/**
 * @file
 * Lockstep batched DiBA: R independent replicas of one cluster —
 * differing in drop rate, budget, RNG seed, and (optionally)
 * individual utilities — advanced through the synchronized round
 * kernel together, replica-interleaved, so one memory sweep over
 * the node arrays steps every replica at once.
 *
 * Motivation: parameter sweeps (the fault-storm loss grid, the
 * Fig. 4.8–4.9 perturbation studies) run the same engine over the
 * same topology a dozen times with small configuration changes,
 * re-reading the CSR overlay and re-paying the full per-round
 * instruction stream once per cell.  Here the state is laid out
 * node-major with the replica index innermost (x[i*R + r]), so a
 * node's R lanes are one contiguous vector-width run: the CSR
 * walk, the Metropolis weights and all loop control are amortized
 * across the batch, and the per-lane arithmetic is exactly the
 * scalar round kernel (round_kernel.hh) applied lane-wise —
 * replica r of a batch is bitwise identical to a standalone
 * DibaAllocator run with the same configuration when its channel
 * is perfect.
 *
 * Faults: each lane owns an iid pair-drop channel (its spec's
 * drop_rate, its own seeded RNG drawing one fate per overlay edge
 * per round in canonical edge order).  A dropped pair cancels both
 * halves of the paired transfer — the two endpoints simply skip
 * that edge in the same lane — so sum(e) == sum(p) − P is
 * conserved bit-exactly per lane under any loss pattern, and every
 * e < 0 keeps each lane's budget a hard guarantee (the same
 * invariant story as DibaAllocator::iterateWithChannel, restricted
 * to lag 0).  Node churn and link masks are out of scope: lanes
 * share one live topology (the storm cells that churn keep their
 * per-cell FaultSession path).
 *
 * All utilities must be quadratic (the engine is the batched
 * analogue of the devirtualized SoA fast path).
 */

#ifndef DPC_ALLOC_REPLICA_BATCH_HH
#define DPC_ALLOC_REPLICA_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/problem.hh"
#include "graph/graph.hh"
#include "util/aligned.hh"
#include "util/rng.hh"

namespace dpc {

/** One lane of a ReplicaBatch. */
struct ReplicaSpec
{
    /** Seed of this lane's drop-fate stream. */
    std::uint64_t seed = 1;
    /** iid probability that an edge's paired transfer is dropped
     * in a given round (0 = perfect channel, no RNG draws). */
    double drop_rate = 0.0;
    /** Lane budget; 0 adopts the problem's budget. */
    double budget = 0.0;
};

/** Batched lockstep DiBA round engine. */
class ReplicaBatch
{
  public:
    /**
     * @param topology  shared communication overlay
     * @param prob      shared problem (all-quadratic; per-lane
     *                  overrides via setUtility)
     * @param specs     one entry per replica lane (>= 1)
     * @param cfg       DiBA parameters (threads/active-set fields
     *                  are ignored; the batch is its own engine)
     */
    ReplicaBatch(Graph topology, AllocationProblem prob,
                 std::vector<ReplicaSpec> specs,
                 DibaAllocator::Config cfg = {});

    /** Cold start every lane: the uniform start of
     * DibaAllocator::doReset, equalized estimates against the
     * lane's own budget, barriers at eta_initial. */
    void reset();

    /**
     * Seed every lane from a settled allocation instead (the
     * perturbation-sweep pattern: solve once, fan out R perturbed
     * lanes): caps adopted (clamped into each lane's boxes), slack
     * re-equalized against the lane budget, barriers at the floor
     * — the same semantics as DibaAllocator::warmStart from an
     * external snapshot.
     */
    void seedFrom(const std::vector<double> &power);

    /** One synchronized round for every lane; returns the largest
     * per-lane max |dp| (lane values via moved()). */
    double stepAll();

    /** Per-lane utility override (a workload perturbation): cap
     * clamped into the new box, estimate adjusted to preserve the
     * lane invariant, lane convergence accounting restarted. */
    void setUtility(std::size_t r, std::size_t i,
                    const QuadraticUtility &u);

    /** Per-lane budget announcement: estimates shift by -delta/n
     * and a drop that exhausts lane slack sheds immediately
     * (sum p < P restored within the call). */
    void setBudget(std::size_t r, double new_budget);

    /** Max |dp| lane r moved in the last stepAll(). */
    double moved(std::size_t r) const { return lane_moved_[r]; }

    /** cfg.quiet_rounds consecutive rounds under cfg.tolerance,
     * per lane. */
    bool converged(std::size_t r) const
    {
        return lane_quiet_[r] > 0 &&
               lane_quiet_[r] >= cfg_.quiet_rounds;
    }

    /** True when every lane's stopping rule is met. */
    bool allConverged() const;

    /** Rounds stepped since the last reset()/seedFrom(). */
    std::size_t rounds() const { return rounds_; }

    /** Consecutive sub-tolerance rounds lane r has strung
     * together. */
    std::size_t quietRounds(std::size_t r) const
    {
        return lane_quiet_[r];
    }

    /** Observed fraction of lane r's pair transfers dropped since
     * the last reset()/seedFrom() (0 when no fates were drawn). */
    double lossRate(std::size_t r) const;

    /** Lane r's power caps, de-interleaved. */
    std::vector<double> powerOf(std::size_t r) const;

    /** Lane r's constraint estimates, de-interleaved. */
    std::vector<double> estimatesOf(std::size_t r) const;

    /** Sum of lane r's caps. */
    double totalPower(std::size_t r) const;

    /** Lane r's most recent emergency shed (end == ShedEnd::none
     * before the first). */
    const ShedOutcome &lastShed(std::size_t r) const
    {
        return lane_shed_[r];
    }

    /** Lane r's budget in force. */
    double budget(std::size_t r) const { return budget_[r]; }

    std::size_t numReplicas() const { return specs_.size(); }
    std::size_t size() const { return n_; }
    const Graph &topology() const { return topo_; }

  private:
    /** Interleaved slot of node i, lane r. */
    std::size_t at(std::size_t i, std::size_t r) const
    {
        return i * specs_.size() + r;
    }

    /** Draw this round's per-lane edge fates (1 = delivered). */
    void drawFates();

    /** Immediate per-lane shed + lane diffusion under
     * runEmergencyShed's stop rule (DibaAllocator::emergencyShed,
     * one lane); the outcome lands in lastShed(r). */
    void shedLane(std::size_t r);

    /** One Metropolis diffusion sweep of lane r only (cold path,
     * used by shedLane). */
    void diffuseLane(std::size_t r);

    Graph topo_;
    AllocationProblem prob_;
    std::vector<ReplicaSpec> specs_;
    DibaAllocator::Config cfg_;
    RoundKernelParams kp_;
    std::size_t n_ = 0;

    /** Metropolis weight per directed CSR slot (shared by lanes). */
    std::vector<double> w_;
    /** Canonical undirected edge list (u < v); index == edge id. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
    /** Undirected edge id per directed CSR slot. */
    std::vector<std::uint32_t> slot_edge_;

    // Node-major, replica-innermost state ([i*R + r]).
    AlignedVector<double> p_, e_, e_snap_, eta_;
    AlignedVector<double> qb_, qc_, qlo_, qhi_;

    /** Per-lane budgets in force. */
    std::vector<double> budget_;
    /** Per-lane drop-fate RNG streams. */
    std::vector<Rng> rng_;
    /** This round's fates, edge-major lane-inner ([id*R + r]). */
    std::vector<std::uint8_t> fates_;
    /** True iff some lane has a positive drop rate. */
    bool any_drop_ = false;
    /** Dropped-transfer tally per lane, and rounds with fates
     * drawn, for lossRate() diagnostics. */
    std::vector<std::size_t> lane_drops_;
    std::size_t fate_rounds_ = 0;

    /** Lane-width scratch: per-node diffusion accumulators. */
    AlignedVector<double> acc_;
    /** Lane scratch for diffuseLane snapshots. */
    std::vector<double> lane_scratch_;

    std::vector<double> lane_moved_;
    std::vector<std::size_t> lane_quiet_;
    /** Per-lane outcome of the most recent shedLane(). */
    std::vector<ShedOutcome> lane_shed_;
    std::size_t rounds_ = 0;
};

} // namespace dpc

#endif // DPC_ALLOC_REPLICA_BATCH_HH
