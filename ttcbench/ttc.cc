/**
 * @file
 * Time-to-cap benchmark program.
 *
 * Measures the wall time from a control event until the caps meet
 * the paper's criterion (sum caps <= P and utility >= 99% of the KKT
 * optimum, Eq. 4.11 / Table 4.2), on four closed-loop workloads:
 *
 *   cold_start       reset() on a fresh problem, step() to settle
 *   demand_response  setBudget() on a settled cluster (Figs. 4.4-4.6)
 *   job_churn        setUtility() for the jobs one 1 s step of
 *                    Fig. 4.7's churn finishes
 *   sharded_cold     cold_start's problems on 2 shard processes over
 *                    TCP (runShardedDiba), run for the cap round
 *
 * The library is driven only through its public calls; every event
 * is checked against the KKT oracle (and, sharded, against bitwise
 * single-process parity) outside the timed region.  See NOTES.md.
 *
 *   ttc --workload NAME --seed N --seconds S --trace 0|1
 *       [--report FILE] [--spans FILE] [--repo DIR]
 *   ttc --findings
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics
 * with --trace 0, the per-layer metrics of a traced run with
 * --trace 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "cluster/shard.hh"
#include "criterion.hh"
#include "fingerprint.hh"
#include "graph/topologies.hh"
#include "util/rng.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"

namespace {

using dpc::AllocationProblem;
using dpc::DibaAllocator;
using ttc::EventCheck;
using ttc::EventRecord;
using ttc::nowNs;
using ttc::SpanLog;

// ---- workload constants (see NOTES.md for why) --------------------

constexpr std::size_t kNodes = 1000;
constexpr double kWattsPerNode = 172.0;
/** Fixed overlay: a chordal ring with n/4 chords from this seed. */
constexpr std::uint64_t kTopologySeed = 0x70f0109ull;
/** Fig. 4.7's mean job duration (s) and the control step (s). */
constexpr double kMeanJobS = 120.0;
constexpr double kControlStepS = 1.0;
constexpr std::uint32_t kShards = 2;
/** Every percentile has >= 10 events beyond p90. */
constexpr std::size_t kMinEvents = 100;
/** A run never measures longer than this, whatever the event floor
 * asks (a run must end within 180 s). */
constexpr double kMaxMeasureS = 120.0;
/**
 * The untraced run measures every event in this many passes: pass 0
 * runs events for 1/kPasses of the run, each later pass replays them
 * from the same starting state, and an event's times are the mean of
 * its replays.  On the shared 4-vCPU host of NOTES.md a round runs
 * ~1.4x slower for stretches of 10-60 s; replays a third of a run
 * apart average those stretches into every event instead of letting
 * the median jump between a fast and a slow group of events.
 */
constexpr std::size_t kPasses = 3;
/** Set-up is sampled at this many points spread evenly over the run,
 * each point repeating it for at least kSetupPointS; the median of
 * all samples is reported. */
constexpr std::size_t kSetupPoints = 15;
constexpr double kSetupPointS = 0.01;
/** The traced cold_start run also runs every this-many-th problem
 * through the 2-shard path. */
constexpr std::int64_t kShardSampleEvery = 10;
/** Stated slack: each event's child spans cover all but this share
 * of its span. */
constexpr double kCoverageSlack = 0.05;

/** splitmix64 of (seed, stream, index): independent input streams. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      stream * 0xbf58476d1ce4e5b9ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

enum Stream : std::uint64_t
{
    kColdProblem = 1,
    kWarmProblem = 2,
    kBudgetLevel = 3,
    kChurn = 4,
    kSetupProblem = 5,
};

AllocationProblem
npbProblem(std::uint64_t problem_seed)
{
    return AllocationProblem::Builder()
        .npbCluster(kNodes, problem_seed)
        .budgetPerNode(kWattsPerNode)
        .build();
}

/** Problem of set-up sample point `point`: the same for every seed,
 * so set-up times vary with the host only. */
AllocationProblem
setupProblem(std::uint64_t point)
{
    return npbProblem(derive(0, kSetupProblem, point));
}

dpc::Graph
makeOverlay()
{
    dpc::Rng rng(kTopologySeed);
    return dpc::makeChordalRing(kNodes, kNodes / 4, rng);
}

/** Sums over a lane's sharded calls, for the per-layer metrics. */
struct ShardTotals
{
    std::size_t parity_mismatches = 0;
    std::uint64_t rounds = 0, bytes = 0, frames = 0, retransmits = 0,
                  duplicates = 0;
    double loop_s = 0.0, drain_s = 0.0, send_s = 0.0, interior_s = 0.0,
           boundary_s = 0.0;

    void
    add(const dpc::cluster::ShardRunResult &r)
    {
        rounds += r.rounds_run;
        bytes += r.wire_bytes;
        frames += r.wire_frames;
        retransmits += r.retransmits;
        duplicates += r.duplicates;
        loop_s += r.round_loop_s;
        drain_s += r.phase_drain_s;
        send_s += r.phase_send_s;
        interior_s += r.phase_interior_s;
        boundary_s += r.phase_boundary_s;
    }
};

/** Times one call and records it as a span. */
template <class F>
double
timed(SpanLog &log, const char *name, std::int64_t event,
      std::int64_t parent, F &&f)
{
    const std::int64_t s = nowNs();
    f();
    const std::int64_t e = nowNs();
    log.add(name, event, parent, s, e);
    return static_cast<double>(e - s);
}

/** step() until converged() (set-up only; not an event). */
void
settle(DibaAllocator &alloc)
{
    dpc::Rng rng(1);
    for (std::size_t r = 0; r < alloc.maxIterations(); ++r) {
        alloc.step(rng);
        if (alloc.converged())
            return;
    }
    throw std::runtime_error("set-up cluster did not settle");
}

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the state the first event starts from, on
     * setupProblem(point) where the workload settles or launches one;
     * @return the set-up time (ns) spent in library calls. */
    virtual double setup(SpanLog &log, std::uint64_t point) = 0;
    virtual EventRecord event(std::int64_t id, SpanLog &log) = 0;
};

class ColdStart : public Workload
{
  public:
    explicit ColdStart(std::uint64_t seed) : seed_(seed) {}

    double
    setup(SpanLog &log, std::uint64_t) override
    {
        alloc_.reset();
        double ns = timed(log, "graph.overlay_build", -1, -1,
                          [&] { topo_ = makeOverlay(); });
        ns += timed(log, "alloc.ctor", -1, -1, [&] {
            alloc_ = std::make_unique<DibaAllocator>(topo_);
        });
        return ns;
    }

    EventRecord
    event(std::int64_t id, SpanLog &log) override
    {
        const AllocationProblem prob = npbProblem(
            derive(seed_, kColdProblem, static_cast<std::uint64_t>(id)));
        const double opt = dpc::solveKkt(prob).utility;
        return ttc::driveLocalEvent(
            *alloc_, prob, opt, id, log,
            [&](std::int64_t ev) {
                return timed(log, "alloc.reset", id, ev,
                             [&] { alloc_->reset(prob); });
            },
            nullptr);
    }

  private:
    std::uint64_t seed_;
    dpc::Graph topo_{0};
    std::unique_ptr<DibaAllocator> alloc_;
};

/**
 * Shared part of the two workloads that start from a settled cluster.
 * A run walks through several base clusters, kEventsPerBase events on
 * each, so that its medians do not hang on the one problem a seed
 * happens to draw.  Moving to the next base cluster (reset + settle)
 * happens before that event and is not part of it.
 */
class WarmWorkload : public Workload
{
  public:
    explicit WarmWorkload(std::uint64_t seed) : seed_(seed) {}

    double
    setup(SpanLog &log, std::uint64_t point) override
    {
        alloc_.reset();
        prob_ = setupProblem(point);
        double ns = timed(log, "graph.overlay_build", -1, -1,
                          [&] { topo_ = makeOverlay(); });
        ns += timed(log, "alloc.ctor", -1, -1, [&] {
            alloc_ = std::make_unique<DibaAllocator>(topo_);
        });
        ns += timed(log, "alloc.reset", -1, -1,
                    [&] { alloc_->reset(prob_); });
        ns += timed(log, "alloc.settle", -1, -1,
                    [&] { settle(*alloc_); });
        return ns;
    }

  protected:
    static constexpr std::int64_t kEventsPerBase = 10;

    /** Settle base cluster id / kEventsPerBase when event `id` is the
     * first on it. */
    void
    enterBase(std::int64_t id)
    {
        if (id % kEventsPerBase != 0)
            return;
        const auto base = static_cast<std::uint64_t>(id / kEventsPerBase);
        prob_ = npbProblem(derive(seed_, kWarmProblem, base));
        alloc_->reset(prob_);
        settle(*alloc_);
        onBase(base);
    }

    /** Per-workload state of a new base cluster. */
    virtual void onBase(std::uint64_t) {}

    std::uint64_t seed_;
    dpc::Graph topo_{0};
    std::unique_ptr<DibaAllocator> alloc_;
    /** The problem in force. */
    AllocationProblem prob_;
};

/**
 * Fig. 4.4's budget levels (bench/fig4_4_dynamic_budget.cc: 180, 170,
 * 186, 166, 176 W/node), scaled about their midpoint 176 into
 * 172 W/node x (1 +- 0.13), each with a seeded jitter of +-0.02, so
 * every level stays within +-15% of 172 W/node and keeps its step's
 * direction.  A base cluster settles at 172 W/node (the figure's
 * closing 176) and kEventsPerBase is a multiple of the cycle, so each
 * cycle walks rise, drop, rise, drop, rise: the figure run as a loop.
 */
double
budgetLevel(std::uint64_t seed, std::int64_t id)
{
    static const double fig44[5] = {180.0, 170.0, 186.0, 166.0, 176.0};
    dpc::Rng rng(derive(seed, kBudgetLevel, static_cast<std::uint64_t>(id)));
    const double level = 1.0 + 0.13 * (fig44[id % 5] - 176.0) / 10.0 +
                         rng.uniform(-0.02, 0.02);
    return level * kWattsPerNode * static_cast<double>(kNodes);
}

class DemandResponse : public WarmWorkload
{
  public:
    using WarmWorkload::WarmWorkload;

    EventRecord
    event(std::int64_t id, SpanLog &log) override
    {
        enterBase(id);
        prob_.budget = budgetLevel(seed_, id);
        const double opt = dpc::solveKkt(prob_).utility;
        const double before = ttc::sumCaps(alloc_->power());
        const double level = prob_.budget;
        return ttc::driveLocalEvent(
            *alloc_, prob_, opt, id, log,
            [&](std::int64_t ev) {
                return timed(log, "alloc.set_budget", id, ev,
                             [&] { alloc_->setBudget(level); });
            },
            [&](EventRecord &rec) {
                rec.shed = ttc::sumCaps(alloc_->power()) < before;
            });
    }
};

class JobChurn : public WarmWorkload
{
  public:
    using WarmWorkload::WarmWorkload;

    EventRecord
    event(std::int64_t id, SpanLog &log) override
    {
        enterBase(id);
        // One control step of Fig. 4.7's churn: every job that ends
        // within it is replaced by a fresh Table 4.1 draw.  A step in
        // which no job ends is skipped (it announces nothing).
        const auto &suite = dpc::npbHpccBenchmarks();
        std::vector<std::size_t> nodes;
        while (nodes.empty()) {
            t_ += kControlStepS;
            for (std::size_t i = 0; i < kNodes; ++i) {
                if (job_end_[i] > t_)
                    continue;
                prob_.utilities[i] = rng_.choice(suite).utilityPtr();
                job_end_[i] = t_ + dpc::drawJobDuration(kMeanJobS, rng_);
                nodes.push_back(i);
            }
        }
        const double opt = dpc::solveKkt(prob_).utility;
        return ttc::driveLocalEvent(
            *alloc_, prob_, opt, id, log,
            [&](std::int64_t ev) {
                double ns = 0.0;
                for (std::size_t i : nodes)
                    ns += timed(log, "alloc.set_utility", id, ev, [&] {
                        alloc_->setUtility(i, prob_.utilities[i]);
                    });
                return ns;
            },
            nullptr);
    }

  private:
    /** Every job of a new base cluster starts at t = 0. */
    void
    onBase(std::uint64_t base) override
    {
        rng_ = dpc::Rng(derive(seed_, kChurn, base));
        t_ = 0.0;
        job_end_.assign(kNodes, 0.0);
        for (double &end : job_end_)
            end = dpc::drawJobDuration(kMeanJobS, rng_);
    }

    dpc::Rng rng_;
    double t_ = 0.0;
    std::vector<double> job_end_;
};

dpc::cluster::ShardRunOptions
shardOptions(std::size_t rounds)
{
    dpc::cluster::ShardRunOptions opt;
    opt.num_shards = kShards;
    opt.rounds = rounds;
    opt.proto = dpc::net::SocketTransport::Proto::Tcp;
    return opt;
}

class ShardedCold : public Workload
{
  public:
    explicit ShardedCold(std::uint64_t seed) : seed_(seed) {}

    double
    setup(SpanLog &log, std::uint64_t point) override
    {
        ref_.reset();
        const AllocationProblem prob = setupProblem(point);
        double ns = timed(log, "graph.overlay_build", -1, -1,
                          [&] { topo_ = makeOverlay(); });
        ns += timed(log, "alloc.ctor", -1, -1, [&] {
            ref_ = std::make_unique<DibaAllocator>(topo_);
        });
        dpc::cluster::ShardRunResult res;
        ns += timed(log, "cluster.launch", -1, -1, [&] {
            res = dpc::cluster::runShardedDiba(
                prob, topo_, DibaAllocator::Config(), shardOptions(1));
        });
        if (!res.ok)
            throw std::runtime_error("1-round sharded call failed: " +
                                     res.error);
        return ns;
    }

    EventRecord
    event(std::int64_t id, SpanLog &log) override
    {
        const AllocationProblem prob = npbProblem(
            derive(seed_, kColdProblem, static_cast<std::uint64_t>(id)));
        const double opt = dpc::solveKkt(prob).utility;

        // Untimed single-process reference: the cap round and the
        // caps the shards must reproduce bitwise at that round.
        EventCheck ref_chk(prob.budget, opt, ref_->maxIterations());
        ref_->reset(prob);
        dpc::Rng rng(1);
        std::size_t rounds = 0;
        for (std::size_t r = 1; !ref_chk.failed(); ++r) {
            ref_->step(rng);
            const std::vector<double> &caps = ref_->power();
            if (ref_chk.round(r, ttc::sumCaps(caps),
                              ttc::totalUtility(prob.utilities, caps),
                              false)) {
                rounds = r;
                break;
            }
        }
        const std::vector<double> ref_caps = ref_->power();

        EventRecord rec;
        rec.id = id;
        rec.opt_utility = opt;
        rec.budget = prob.budget;
        if (rounds == 0) {
            rec.failed = true;
            rec.failure = "reference: " + ref_chk.failure();
            return rec;
        }
        dpc::cluster::ShardRunResult res;
        const std::int64_t t0 = nowNs();
        const std::int64_t ev = log.open("event", id, -1, t0);
        rec.call_ns = timed(log, "cluster.call", id, ev, [&] {
            res = dpc::cluster::runShardedDiba(
                prob, topo_, DibaAllocator::Config(),
                shardOptions(rounds));
        });
        const std::int64_t e = nowNs();
        log.close(ev, e);
        rec.cap_ns = rec.settle_ns = static_cast<double>(e - t0);
        rec.cap_round = rounds;
        totals_.add(res);

        EventCheck chk(prob.budget, opt, rounds);
        if (!res.ok) {
            chk.fail("sharded run failed: " + res.error);
        } else if (res.rounds_run != rounds ||
                   res.power.size() != ref_caps.size()) {
            chk.fail("sharded run returned " +
                     std::to_string(res.rounds_run) + " rounds, " +
                     std::to_string(res.power.size()) + " caps");
        } else {
            std::size_t first = 0, mismatches = 0;
            for (std::size_t i = 0; i < ref_caps.size(); ++i) {
                if (std::memcmp(&res.power[i], &ref_caps[i],
                                sizeof(double)) != 0 &&
                    mismatches++ == 0)
                    first = i;
            }
            totals_.parity_mismatches += mismatches;
            if (mismatches > 0)
                chk.fail("parity: " + std::to_string(mismatches) +
                         " caps differ from single-process at round " +
                         std::to_string(rounds) + " (first node " +
                         std::to_string(first) + ")");
            const double u = ttc::totalUtility(prob.utilities, res.power);
            chk.round(rounds, ttc::sumCaps(res.power), u, true);
            rec.quality = u / opt;
            if (chk.capRound() != rounds)
                chk.fail("sharded caps not capped at round " +
                         std::to_string(rounds));
        }
        rec.failed = chk.failed();
        rec.failure = chk.failure();
        return rec;
    }

    const ShardTotals &totals() const { return totals_; }

  private:
    std::uint64_t seed_;
    dpc::Graph topo_{0};
    std::unique_ptr<DibaAllocator> ref_;
    ShardTotals totals_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "cold_start")
        return std::make_unique<ColdStart>(seed);
    if (name == "demand_response")
        return std::make_unique<DemandResponse>(seed);
    if (name == "job_churn")
        return std::make_unique<JobChurn>(seed);
    if (name == "sharded_cold")
        return std::make_unique<ShardedCold>(seed);
    return nullptr;
}

// ---- runs -------------------------------------------------------------

struct Pass
{
    std::vector<EventRecord> events;
};

/** One workload instance with its span log and its results; it runs
 * the events whose id is a multiple of `every`. */
struct Lane
{
    Workload &w;
    SpanLog &log;
    Pass &pass;
    std::int64_t every = 1;
};

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/**
 * Set-up samples of one workload: point k repeats setup(k) for at
 * least kSetupPointS, once k/kSetupPoints of the run's `seconds` have
 * passed.  Spreading the points over the run makes the median follow
 * the host over the whole run, not its first second.
 */
class SetupSampler
{
  public:
    SetupSampler(Workload &w, SpanLog &log, double seconds)
        : w_(w), log_(log), seconds_(seconds), start_(nowNs())
    {
    }

    /** Count an outside set-up of point 0 (ns) as a sample. */
    void add(double ns) { samples_.push_back(ns * 1e-9); }

    /** Take the next point if it is due. */
    void
    due()
    {
        if (points_ < kSetupPoints &&
            secondsSince(start_) * kSetupPoints >=
                seconds_ * static_cast<double>(points_))
            nextPoint();
    }

    /** Take the points the run did not reach. */
    void
    finish()
    {
        while (points_ < kSetupPoints)
            nextPoint();
    }

    /** Median set-up time (s). */
    double median() const { return ttc::percentile(samples_, 0.5); }

  private:
    void
    nextPoint()
    {
        const std::int64_t start = nowNs();
        do
            samples_.push_back(w_.setup(log_, points_) * 1e-9);
        while (secondsSince(start) < kSetupPointS);
        ++points_;
    }

    Workload &w_;
    SpanLog &log_;
    double seconds_;
    std::int64_t start_;
    std::size_t points_ = 0;
    std::vector<double> samples_;
};

/**
 * Runs events 0, 1, ... on every lane until `done(n)` holds after n
 * events, taking the set-up points that fall due meanwhile.  Lanes
 * take turns leading, so a traced and an untraced lane see the same
 * machine conditions.  @return the number of events run.
 */
std::size_t
runEvents(std::vector<Lane> lanes, SetupSampler &setup,
          const std::function<bool(std::size_t)> &done)
{
    std::size_t n = 0;
    for (; !done(n); ++n) {
        setup.due();
        const auto id = static_cast<std::int64_t>(n);
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            Lane &l = lanes[(n + k) % lanes.size()];
            if (id % l.every == 0)
                l.pass.events.push_back(l.w.event(id, l.log));
        }
    }
    return n;
}

/** Stop rule of a run measuring for `seconds` from now: `seconds`
 * passed and at least kMinEvents events ran, or `max_seconds`
 * passed. */
std::function<bool(std::size_t)>
forSeconds(double seconds, double max_seconds)
{
    const std::int64_t start = nowNs();
    return [=](std::size_t n) {
        const double s = secondsSince(start);
        return (s >= seconds && n >= kMinEvents) || s >= max_seconds;
    };
}

/** `field` of every event that did not fail. */
std::vector<double>
pick(const std::vector<EventRecord> &evs, double EventRecord::*field)
{
    std::vector<double> out;
    for (const auto &e : evs)
        if (!e.failed)
            out.push_back(e.*field);
    return out;
}

std::size_t
failedCount(const std::vector<EventRecord> &evs)
{
    return static_cast<std::size_t>(std::count_if(
        evs.begin(), evs.end(),
        [](const EventRecord &e) { return e.failed; }));
}

/**
 * Peak RSS of this process (VmHWM: getrusage's ru_maxrss would carry
 * the peak of whatever process exec'ed this one) and of its largest
 * reaped child (the shard processes, forked without exec).
 */
double
peakRssMb()
{
    long hwm_kb = 0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %ld kB", &hwm_kb) == 1)
                break;
        std::fclose(f);
    }
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(hwm_kb, kids.ru_maxrss)) / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** Events the value is drawn from (0 = not an event statistic). */
    std::size_t events = 0;
    /** Percentile the value is (negative = none). */
    double q = -1.0;
};

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const auto &m : ms) {
        std::printf("  %-34s %14.6g %-9s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.events > 0) {
            std::printf(" events=%zu", m.events);
            if (m.q >= 0.0)
                std::printf(" beyond=%zu",
                            ttc::samplesBeyond(m.events, m.q));
        }
        std::printf("\n");
    }
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (const auto &m : ms) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

/** Digest of the first kMinEvents events' inputs (every run has
 * them), so equal seeds give equal digests. */
std::string
inputDigest(const std::vector<EventRecord> &evs)
{
    unsigned long long h = ttc::fnv1a("");
    for (std::size_t i = 0; i < std::min(evs.size(), kMinEvents); ++i) {
        const auto &e = evs[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g %.17g;", e.opt_utility,
                      e.budget);
        h = ttc::fnv1a(buf, h);
    }
    char out[32];
    std::snprintf(out, sizeof out, "%016llx", h);
    return out;
}

std::vector<Metric>
endToEnd(const Pass &pass, double setup_s)
{
    const auto &evs = pass.events;
    const auto cap = pick(evs, &EventRecord::cap_ns);
    const auto settle = pick(evs, &EventRecord::settle_ns);
    const auto quality = pick(evs, &EventRecord::quality);
    return {
        {"time_to_cap_ms_p50", ttc::percentile(cap, 0.5) * 1e-6, "ms",
         cap.size(), 0.5},
        {"time_to_cap_ms_p90", ttc::percentile(cap, 0.9) * 1e-6, "ms",
         cap.size(), 0.9},
        {"time_to_settle_ms_p50", ttc::percentile(settle, 0.5) * 1e-6,
         "ms", settle.size(), 0.5},
        {"time_to_settle_ms_p90", ttc::percentile(settle, 0.9) * 1e-6,
         "ms", settle.size(), 0.9},
        {"quality_frac_of_opt_min",
         quality.empty()
             ? 0.0
             : *std::min_element(quality.begin(), quality.end()),
         "frac", quality.size()},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const Pass &untraced, const Pass &traced, const ShardTotals &sh,
         const SpanLog &log)
{
    const auto &evs = traced.events;
    const auto &spans = log.spans();
    auto eventSpans = [&](const char *name) {
        std::vector<double> out;
        for (const auto &s : spans)
            if (s.event >= 0 && std::strcmp(s.name, name) == 0)
                out.push_back(static_cast<double>(s.end_ns - s.start_ns));
        return out;
    };
    auto setupSpans = [&](const char *name) {
        std::vector<double> out;
        for (const auto &s : spans)
            if (s.event < 0 && std::strcmp(s.name, name) == 0)
                out.push_back(static_cast<double>(s.end_ns - s.start_ns));
        return out;
    };
    const double p50 = 0.5, p90 = 0.9;
    const auto step = eventSpans("alloc.step");
    const auto reset = eventSpans("alloc.reset");
    const auto set_budget = eventSpans("alloc.set_budget");
    const auto set_utility = eventSpans("alloc.set_utility");
    const auto call = eventSpans("cluster.call");

    std::vector<double> cap_rounds, settle_rounds;
    double call_ns = 0.0, cap_ns = 0.0;
    std::size_t sheds = 0;
    for (const auto &e : evs) {
        if (e.cap_round > 0)
            cap_rounds.push_back(static_cast<double>(e.cap_round));
        if (e.settle_round > 0)
            settle_rounds.push_back(
                static_cast<double>(e.settle_round));
        if (!e.failed) {
            call_ns += e.call_ns;
            cap_ns += e.cap_ns;
        }
        sheds += e.shed ? 1 : 0;
    }
    const double rd =
        sh.rounds > 0 ? static_cast<double>(sh.rounds) : 1.0;
    // Phase totals are summed over shards: report per shard-round.
    const double shard_rounds = rd * kShards;

    // Coverage of each event span by its children.
    const auto cov = log.childCoverageNs();
    double ev_ns = 0.0, uncovered_ns = 0.0;
    std::size_t event_spans = 0, over_slack = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, "event") != 0)
            continue;
        const double d =
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        const double u = d - static_cast<double>(cov[i]);
        ++event_spans;
        ev_ns += d;
        uncovered_ns += u;
        if (d > 0 && u / d > kCoverageSlack)
            ++over_slack;
    }
    std::printf("trace: %zu spans; %zu of %zu events leave more than "
                "%.0f%% of their span uncovered\n",
                spans.size(), over_slack, event_spans,
                kCoverageSlack * 100.0);

    const double cap_untraced =
        ttc::percentile(pick(untraced.events, &EventRecord::cap_ns), 0.5);
    const double cap_traced =
        ttc::percentile(pick(evs, &EventRecord::cap_ns), 0.5);
    const std::size_t n = evs.size();
    const double step_p50 = ttc::percentile(step, p50);

    return {
        {"alloc.round_us_p50", step_p50 * 1e-3, "us", step.size(), p50},
        {"alloc.round_ns_per_node", step_p50 / kNodes, "ns",
         step.size(), p50},
        {"alloc.rounds_to_cap_p50", ttc::percentile(cap_rounds, p50),
         "rounds", cap_rounds.size(), p50},
        {"alloc.rounds_to_settle_p50",
         ttc::percentile(settle_rounds, p50), "rounds",
         settle_rounds.size(), p50},
        {"alloc.reset_ms_p50", ttc::percentile(reset, p50) * 1e-6, "ms",
         reset.size(), p50},
        {"alloc.ctor_ms",
         ttc::percentile(setupSpans("alloc.ctor"), p50) * 1e-6, "ms"},
        {"alloc.set_budget_ms_p50",
         ttc::percentile(set_budget, p50) * 1e-6, "ms",
         set_budget.size(), p50},
        {"alloc.set_budget_ms_p90",
         ttc::percentile(set_budget, p90) * 1e-6, "ms",
         set_budget.size(), p90},
        {"alloc.shed_events", static_cast<double>(sheds), "count", n},
        {"alloc.set_utility_us_p50",
         ttc::percentile(set_utility, p50) * 1e-3, "us",
         set_utility.size(), p50},
        {"alloc.event_call_frac", cap_ns > 0 ? call_ns / cap_ns : 0.0,
         "frac", n},
        {"graph.overlay_build_ms",
         ttc::percentile(setupSpans("graph.overlay_build"), p50) * 1e-6,
         "ms"},
        {"cluster.call_ms_p50", ttc::percentile(call, p50) * 1e-6, "ms",
         call.size(), p50},
        {"cluster.launch_ms",
         ttc::percentile(setupSpans("cluster.launch"), p50) * 1e-6,
         "ms"},
        {"cluster.round_loop_us_per_round", sh.loop_s * 1e6 / rd, "us"},
        {"cluster.parity_mismatches",
         static_cast<double>(sh.parity_mismatches), "count"},
        {"net.bytes_per_round", static_cast<double>(sh.bytes) / rd, "B"},
        {"net.frames_per_round", static_cast<double>(sh.frames) / rd,
         "count"},
        {"net.retransmits", static_cast<double>(sh.retransmits), "count"},
        {"net.duplicates", static_cast<double>(sh.duplicates), "count"},
        {"net.drain_us_per_round", sh.drain_s * 1e6 / shard_rounds, "us"},
        {"net.send_us_per_round", sh.send_s * 1e6 / shard_rounds, "us"},
        {"net.interior_us_per_round", sh.interior_s * 1e6 / shard_rounds,
         "us"},
        {"net.boundary_us_per_round", sh.boundary_s * 1e6 / shard_rounds,
         "us"},
        {"trace.unaccounted_frac", ev_ns > 0 ? uncovered_ns / ev_ns : 0.0,
         "frac", n},
        {"trace.overhead_frac",
         cap_untraced > 0 ? (cap_traced - cap_untraced) / cap_untraced
                          : 0.0,
         "frac", n},
        {"trace.events_over_slack", static_cast<double>(over_slack),
         "count", event_spans},
    };
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string report;
    std::string spans;
    std::string repo = ".";
    bool findings = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ttc: %s\nusage: ttc --workload cold_start|"
                 "demand_response|job_churn|sharded_cold --seed N "
                 "--seconds S --trace 0|1 [--report FILE] "
                 "[--spans FILE] [--repo DIR]\n       ttc --findings\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--findings") {
            a.findings = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--report") {
            a.report = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else if (k == "--repo") {
            a.repo = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    return a;
}

int runFindings();

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.findings)
        return runFindings();
    auto w = makeWorkload(args.workload, args.seed);
    if (!w)
        usage(("unknown workload '" + args.workload + "'").c_str());
    const ttc::Fingerprint fp = ttc::hostFingerprint(args.repo);
    std::printf("ttc %s seed=%llu seconds=%g trace=%d passes=%zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.trace ? std::size_t{1} : kPasses);
    std::printf("fingerprint %s\n", fp.json().c_str());
    std::fflush(stdout);

    SpanLog off(false), on(true);
    SpanLog &setup_log = args.trace ? on : off;
    // Further set-up samples are taken on a scratch instance during
    // the run; the run's own set-up is the first sample.
    auto scratch = makeWorkload(args.workload, args.seed);
    SetupSampler setup(*scratch, setup_log, args.seconds);
    setup.add(w->setup(setup_log, 0));

    Pass measured, traced, sampled;
    std::vector<Metric> metrics;
    const std::int64_t start = nowNs();
    double measured_s = 0.0;
    if (!args.trace) {
        // Pass 0 sets the events; each later pass replays them on a
        // fresh instance from the same starting state.
        std::vector<Pass> passes(kPasses);
        const double pass_s = args.seconds / static_cast<double>(kPasses);
        const std::size_t n = runEvents(
            {{*w, off, passes[0]}}, setup,
            forSeconds(pass_s, kMaxMeasureS / static_cast<double>(kPasses)));
        for (std::size_t p = 1; p < kPasses; ++p) {
            auto replay = makeWorkload(args.workload, args.seed);
            replay->setup(off, 0);
            runEvents({{*replay, off, passes[p]}}, setup,
                      [n](std::size_t k) { return k >= n; });
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<EventRecord> replays;
            for (const Pass &p : passes)
                replays.push_back(p.events[i]);
            measured.events.push_back(ttc::mergeReplays(replays));
        }
        measured_s = secondsSince(start);
        setup.finish();
        metrics = endToEnd(measured, setup.median());
    } else {
        // A second instance from the same starting state runs the
        // same events traced, interleaved with the untraced ones.
        auto wt = makeWorkload(args.workload, args.seed);
        wt->setup(off, 0);
        std::vector<Lane> lanes{{*w, off, measured}, {*wt, on, traced}};
        // sharded_cold's end-to-end times are not steady on a shared
        // host (NOTES.md), so the benchmark list leaves it out; the
        // traced cold_start run keeps the cluster and net layers
        // measured on every kShardSampleEvery-th of its problems.
        std::unique_ptr<ShardedCold> ws;
        if (args.workload == "cold_start") {
            ws = std::make_unique<ShardedCold>(args.seed);
            ws->setup(on, 0);
            lanes.push_back({*ws, on, sampled, kShardSampleEvery});
        }
        runEvents(lanes, setup, forSeconds(args.seconds, kMaxMeasureS));
        measured_s = secondsSince(start);
        setup.finish();
        const auto *sharded = ws ? ws.get()
                                 : dynamic_cast<ShardedCold *>(wt.get());
        metrics = perLayer(measured, traced,
                           sharded ? sharded->totals() : ShardTotals{},
                           on);
    }
    std::vector<EventRecord> evs =
        args.trace ? traced.events : measured.events;
    evs.insert(evs.end(), sampled.events.begin(), sampled.events.end());
    const std::size_t failed = failedCount(evs);
    const std::string digest = inputDigest(evs);

    const double failed_frac =
        evs.empty() ? 0.0
                    : static_cast<double>(failed) /
                          static_cast<double>(evs.size());

    std::printf("events=%zu failed=%zu measured_s=%.3f inputs=%s\n",
                evs.size(), failed,
                measured_s,
                digest.c_str());
    for (const auto &e : evs)
        if (e.failed)
            std::printf("FAILED seed=%llu event=%lld: %s\n",
                        static_cast<unsigned long long>(args.seed),
                        static_cast<long long>(e.id), e.failure.c_str());
    if (!args.trace) {
        std::vector<double> cap_rounds, settle_rounds;
        for (const auto &e : evs) {
            cap_rounds.push_back(static_cast<double>(e.cap_round));
            settle_rounds.push_back(static_cast<double>(e.settle_round));
        }
        std::printf("rounds: to cap p50 %.1f, to settle p50 %.1f\n",
                    ttc::percentile(cap_rounds, 0.5),
                    ttc::percentile(settle_rounds, 0.5));
    }
    // failed_event_frac is a per-layer metric of the traced run; the
    // untraced result line carries it as `failed` / `attempted`.
    metrics.push_back({"failed_event_frac", failed_frac, "frac",
                       evs.size()});
    printMetrics(metrics);
    if (!args.trace)
        metrics.pop_back();

    if (!args.report.empty()) {
        std::FILE *f = std::fopen(args.report.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "ttc: cannot write %s\n",
                         args.report.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"seed\": %llu, "
                     "\"seconds\": %s, \"trace\": %d, "
                     "\"fingerprint\": %s, \"inputs\": \"%s\", "
                     "\"attempted\": %zu, \"failed\": %zu, "
                     "\"failures\": [",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed),
                     fmt(args.seconds).c_str(), args.trace ? 1 : 0,
                     fp.json().c_str(), digest.c_str(), evs.size(),
                     failed);
        bool first = true;
        for (const auto &e : evs) {
            if (!e.failed)
                continue;
            std::fprintf(f, "%s{\"seed\": %llu, \"event\": %lld, "
                            "\"reason\": \"%s\"}",
                         first ? "" : ", ",
                         static_cast<unsigned long long>(args.seed),
                         static_cast<long long>(e.id),
                         escape(e.failure).c_str());
            first = false;
        }
        std::fprintf(f, "], \"metrics\": %s}\n",
                     metricsJson(metrics).c_str());
        std::fclose(f);
    }
    if (args.trace && !args.spans.empty())
        on.writeTsv(args.spans);

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", evs.size(), failed,
                metricsJson(metrics).c_str());
    return 0;
}

namespace {

/** Cluster of `n` nodes on the benchmark's overlay family. */
struct Probe
{
    AllocationProblem prob;
    dpc::Graph topo{0};

    explicit Probe(std::size_t n)
    {
        prob = AllocationProblem::Builder()
                   .npbCluster(n, 1)
                   .budgetPerNode(kWattsPerNode)
                   .build();
        dpc::Rng rng(kTopologySeed);
        topo = dpc::makeChordalRing(n, n / 4, rng);
    }
};

/** Median setBudget() time over emergency-shed drops, and how many
 * of the drops shed. */
void
findShed(std::size_t n)
{
    Probe p(n);
    DibaAllocator alloc(p.topo);
    alloc.reset(p.prob);
    settle(alloc);
    const double nominal = p.prob.budget;
    std::vector<double> ms;
    std::size_t sheds = 0;
    for (int k = 0; k < 5; ++k) {
        const double before = ttc::sumCaps(alloc.power());
        const std::int64_t s = nowNs();
        alloc.setBudget(0.85 * nominal);
        const std::int64_t e = nowNs();
        ms.push_back(static_cast<double>(e - s) * 1e-6);
        sheds += ttc::sumCaps(alloc.power()) < before ? 1 : 0;
        settle(alloc);
        alloc.setBudget(nominal);
        settle(alloc);
    }
    std::printf("setBudget -15%% drop, n=%zu: median %.3f ms over %zu "
                "calls (%zu shed caps inside the call)\n",
                n, ttc::percentile(ms, 0.5), ms.size(), sheds);
}

/** Median setUtility() time. */
void
findSetUtility(std::size_t n)
{
    Probe p(n);
    DibaAllocator alloc(p.topo);
    alloc.reset(p.prob);
    settle(alloc);
    dpc::Rng rng(11);
    const auto &suite = dpc::npbHpccBenchmarks();
    std::vector<double> us;
    for (int k = 0; k < 400; ++k) {
        const std::size_t i = rng.index(n);
        const auto u = rng.choice(suite).utilityPtr();
        const std::int64_t s = nowNs();
        alloc.setUtility(i, u);
        const std::int64_t e = nowNs();
        us.push_back(static_cast<double>(e - s) * 1e-3);
    }
    std::printf("setUtility, n=%zu: median %.2f us over %zu calls\n", n,
                ttc::percentile(us, 0.5), us.size());
}

/** Single-process step() against a 2-shard TCP round. */
void
findShardRound(std::size_t n, std::size_t rounds)
{
    Probe p(n);
    DibaAllocator alloc(p.topo);
    alloc.reset(p.prob);
    dpc::Rng rng(1);
    std::vector<double> us;
    for (std::size_t r = 0; r < rounds; ++r) {
        const std::int64_t s = nowNs();
        alloc.step(rng);
        us.push_back(static_cast<double>(nowNs() - s) * 1e-3);
    }
    const auto res = dpc::cluster::runShardedDiba(
        p.prob, p.topo, DibaAllocator::Config(), shardOptions(rounds));
    if (!res.ok) {
        std::printf("sharded run failed: %s\n", res.error.c_str());
        return;
    }
    const double per = res.round_loop_s * 1e6 / static_cast<double>(rounds);
    const double sr = static_cast<double>(rounds * kShards);
    std::printf("round, n=%zu, %zu rounds: single-process step() median "
                "%.1f us; 2-shard TCP %.1f us (slowest shard's loop), "
                "per shard-round drain %.1f, send %.1f, interior %.1f, "
                "boundary %.1f us\n",
                n, rounds, ttc::percentile(us, 0.5), per,
                res.phase_drain_s * 1e6 / sr, res.phase_send_s * 1e6 / sr,
                res.phase_interior_s * 1e6 / sr,
                res.phase_boundary_s * 1e6 / sr);
}

/** Cold start to settle with a given active-set threshold. */
void
findActiveSet(std::size_t n, double threshold)
{
    Probe p(n);
    DibaAllocator::Config cfg;
    cfg.active_threshold = threshold;
    DibaAllocator alloc(p.topo, cfg);
    const double opt = dpc::solveKkt(p.prob).utility;
    alloc.reset(p.prob);
    dpc::Rng rng(1);
    std::size_t r = 0;
    const std::int64_t s = nowNs();
    while (r < alloc.maxIterations() && !alloc.converged()) {
        alloc.step(rng);
        ++r;
    }
    const double sec = static_cast<double>(nowNs() - s) * 1e-9;
    std::printf("cold start, n=%zu, active_threshold=%g: %s after %zu "
                "rounds (%.2f s) at %.4f of the KKT optimum\n",
                n, threshold,
                alloc.converged() ? "settled" : "NOT settled", r, sec,
                ttc::totalUtility(p.prob.utilities, alloc.power()) / opt);
}

int
runFindings()
{
    const double tol = DibaAllocator::Config().tolerance;
    for (std::size_t n : {kNodes, std::size_t{6400}}) {
        findShed(n);
        findSetUtility(n);
    }
    findShardRound(kNodes, 2000);
    findActiveSet(6400, -1.0);
    findActiveSet(6400, 4.0 * tol);
    return 0;
}

} // namespace
