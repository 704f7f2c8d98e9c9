/**
 * @file
 * Round-engine microbenchmarks: one synchronized DiBA round
 * (diffuse + local steps) under the three engine configurations
 * the scalability work introduced --
 *
 *   seed:      generic virtual-dispatch utility path, serial loop
 *              over std::vector<std::vector> adjacency semantics
 *              (enable_quad_fastpath = false, num_threads = 0);
 *   soa:       devirtualized quadratic struct-of-arrays fast path
 *              over the CSR overlay, still serial;
 *   parallel:  soa + the static-chunked ThreadPool with one chunk
 *              per hardware thread.
 *
 * plus steady-state rounds (dense vs. active-set frontier), the
 * emergency shed inside a budget drop, the dense diffusion gather
 * alone (CSR body vs. the dispatched SELL twin), the batched
 * replica engine, and the primal-dual best-response sweep reusing
 * the same pool.
 * The serial/parallel DiBA rounds are bitwise-identical by
 * construction (see DESIGN.md "Round engine"), so these measure
 * the same computation.  Problems come from the shared cache so
 * harness re-entries never regenerate utilities inside setup.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "alloc/diba.hh"
#include "alloc/primal_dual.hh"
#include "alloc/replica_batch.hh"
#include "bench/common.hh"
#include "util/thread_pool.hh"

using namespace dpc;

namespace {

constexpr double kWattsPerNode = 172.0;
constexpr std::uint64_t kSeed = 23;

DibaAllocator::Config
engineConfig(bool soa, std::size_t threads)
{
    DibaAllocator::Config cfg;
    cfg.enable_quad_fastpath = soa;
    cfg.num_threads = threads;
    return cfg;
}

void
roundBench(benchmark::State &state, bool soa, std::size_t threads)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator diba(makeRing(n), engineConfig(soa, threads));
    diba.reset(prob);
    for (auto _ : state)
        benchmark::DoNotOptimize(diba.iterate());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["node_ns"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.SetComplexityN(state.range(0));
}

void
BM_RoundSeedStyle(benchmark::State &state)
{
    roundBench(state, /*soa=*/false, /*threads=*/0);
}

void
BM_RoundSoa(benchmark::State &state)
{
    roundBench(state, /*soa=*/true, /*threads=*/0);
}

void
BM_RoundSoaParallel(benchmark::State &state)
{
    roundBench(state, /*soa=*/true, ThreadPool::hardwareChunks());
}

/**
 * Steady-state round cost: the engine first converges, then the
 * timed region measures the per-round cost of holding the
 * converged allocation.  This is where the active-set engine earns
 * its keep -- the control loop spends most of its life converged,
 * re-running rounds only to track small drifts, and the dense
 * engine pays the full O(N + E) sweep for every one of them while
 * the sparse engine touches only the (empty or tiny) frontier.
 */
void
steadyBench(benchmark::State &state, double active_threshold)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    DibaAllocator::Config cfg;
    cfg.active_threshold = active_threshold;
    DibaAllocator diba(makeRing(n), cfg);
    Rng rng(1);
    diba.reset(prob);
    for (std::size_t r = 0; r < 200000 && !diba.converged(); ++r)
        diba.step(rng);
    // Residuals keep a long sub-tolerance tail after the stopping
    // rule fires; drain it so the timed region measures the truly
    // quiesced regime (empty frontier for the active engine).
    if (active_threshold >= 0.0) {
        for (std::size_t r = 0;
             r < 200000 && diba.frontierHotCount() > 0; ++r)
            diba.iterate();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(diba.iterate());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["node_ns"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.SetComplexityN(state.range(0));
}

void
BM_RoundDenseSteady(benchmark::State &state)
{
    steadyBench(state, /*active_threshold=*/-1.0);
}

void
BM_RoundActiveSteady(benchmark::State &state)
{
    // Quiesced nodes leave the frontier once their residual falls
    // under a quarter of the convergence tolerance; at steady state
    // the frontier is empty and a round costs O(1).
    DibaAllocator::Config probe;
    steadyBench(state, 0.25 * probe.tolerance);
}

/** Step to convergence (the control loop's settled state). */
void
settle(DibaAllocator &diba)
{
    Rng rng(1);
    for (std::size_t r = 0; r < diba.maxIterations() && !diba.converged();
         ++r)
        diba.step(rng);
}

/**
 * Emergency-shed cost: a -15% or -23% setBudget() drop (the second
 * argument, in percent) on a settled chordal ring (the
 * demand-response shed), timed alone.  Restoring the nominal budget
 * and re-settling happen outside the timer, so every iteration sheds
 * from a settled state.  The `passes` counter is the shed's pass
 * count per drop, averaged over the iterations (each re-settle
 * lands on a slightly different point, so the count varies a
 * little).
 */
void
BM_SetBudgetShed(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const double keep = 1.0 - 0.01 * static_cast<double>(state.range(1));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    Rng topo_rng(kSeed);
    DibaAllocator diba(makeChordalRing(n, n / 4, topo_rng));
    diba.reset(prob);
    settle(diba);
    double passes = 0.0;
    for (auto _ : state) {
        diba.setBudget(keep * prob.budget);
        benchmark::ClobberMemory();
        state.PauseTiming();
        passes += diba.lastShed().passes;
        diba.setBudget(prob.budget);
        settle(diba);
        state.ResumeTiming();
    }
    state.counters["passes"] =
        benchmark::Counter(passes, benchmark::Counter::kAvgIterations);
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
}

/**
 * The round's diffusion half alone: one dense Metropolis gather over
 * all n nodes, through the CSR body (body 0) or the dispatched SELL
 * twin (body 1), on a ring (topology 0), the chordal ring the
 * time-to-cap bench runs (1) or a star (2, one hub spilled past its
 * slice width).  Weights are DiBA's Metropolis weights; the label
 * carries the SELL cells per CSR slot.
 */
void
BM_DenseGather(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(kSeed);
    const char *topo_name[] = {"ring", "chordal", "star"};
    const Graph topo = state.range(1) == 0   ? makeRing(n)
                       : state.range(1) == 1 ? makeChordalRing(n, n / 4, rng)
                                             : makeStar(n);
    const GraphCsr &g = topo.csr();
    std::vector<double> w(g.neighbors.size());
    for (std::size_t v = 0; v < n; ++v)
        for (std::uint32_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k)
            w[k] = 1.0 / (1.0 + static_cast<double>(std::max(
                                    g.degree(v),
                                    g.degree(g.neighbors[k]))));
    const SellOverlay sell(g, w.data());
    std::vector<double> snap(n), e(n);
    for (double &x : snap)
        x = -30.0 * rng.uniform();
    const bool csr = state.range(2) == 0;
    for (auto _ : state) {
        if (csr)
            gatherDenseScalar(g, w.data(), sell, snap.data(), e.data(),
                              0.0, 0, n);
        else
            gatherDense(g, w.data(), sell, snap.data(), e.data(), 0.0,
                        0, n);
        benchmark::DoNotOptimize(e.data());
        benchmark::ClobberMemory();
    }
    const double ratio = static_cast<double>(sell.cells()) /
                         static_cast<double>(g.neighbors.size());
    state.SetLabel(std::string(topo_name[state.range(1)]) +
                   (csr ? " csr" : " sell") +
                   " cells/slots=" + std::to_string(ratio).substr(0, 4));
    state.counters["node_ns"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/**
 * Batched replicas vs. one-at-a-time: R lockstep lanes through
 * ReplicaBatch, timed per round; node_ns is normalized per LANE
 * per node, so it is directly comparable to BM_RoundSoa (one lane
 * through the standalone engine).
 */
void
BM_ReplicaBatchRound(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto R = static_cast<std::size_t>(state.range(1));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    std::vector<ReplicaSpec> specs(R);
    for (std::size_t r = 0; r < R; ++r)
        specs[r].seed = r + 1;
    ReplicaBatch batch(makeRing(n), prob, specs);
    for (auto _ : state)
        benchmark::DoNotOptimize(batch.stepAll());
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
    state.counters["lane_node_ns"] = benchmark::Counter(
        static_cast<double>(n * R),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
BM_PdSolve(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &prob = bench::cachedNpbProblem(n, kWattsPerNode,
                                               kSeed);
    PrimalDualAllocator::Config cfg;
    cfg.num_threads = static_cast<std::size_t>(state.range(1));
    PrimalDualAllocator pd(cfg);
    for (auto _ : state) {
        auto res = pd.allocate(prob);
        benchmark::DoNotOptimize(res.utility);
    }
    state.SetLabel(bench::problemLabel(n, kWattsPerNode, kSeed));
}

} // namespace

BENCHMARK(BM_RoundSeedStyle)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Arg(25600)
    ->Complexity();
BENCHMARK(BM_RoundSoa)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Arg(25600)
    ->Complexity();
BENCHMARK(BM_RoundSoaParallel)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Arg(25600)
    ->Complexity();
BENCHMARK(BM_RoundDenseSteady)->Arg(1600)->Arg(6400)->Arg(25600);
BENCHMARK(BM_RoundActiveSteady)->Arg(1600)->Arg(6400)->Arg(25600);
BENCHMARK(BM_SetBudgetShed)
    ->ArgsProduct({{1000, 6400}, {15, 23}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseGather)
    ->ArgsProduct({{1000, 6400, 25600}, {0, 1, 2}, {0, 1}});
BENCHMARK(BM_ReplicaBatchRound)
    ->Args({1600, 1})
    ->Args({1600, 8})
    ->Args({6400, 8});
BENCHMARK(BM_PdSolve)
    ->Args({6400, 0})
    ->Args({6400, static_cast<long>(ThreadPool::hardwareChunks())});

int
main(int argc, char **argv)
{
    std::cout << "round kernel: " << roundKernelName() << "\n";
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
