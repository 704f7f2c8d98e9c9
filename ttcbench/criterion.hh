/**
 * @file
 * The time-to-cap benchmark's own bookkeeping: the per-event cap /
 * settle criterion, order statistics over event times, and the span
 * recorder of the traced run.  Nothing here calls into the round
 * engine; ttc.cc feeds it the caps it reads back.
 */

#ifndef TTC_CRITERION_HH
#define TTC_CRITERION_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "alloc/diba.hh"
#include "model/utility.hh"

namespace ttc {

/** Fraction of the KKT optimum an allocation must reach (Table 4.2). */
constexpr double kQualityBar = 0.99;

/** Sum of the caps. */
double sumCaps(const std::vector<double> &caps);

/** Total utility sum_i r_i(p_i) of `caps` under `utilities`. */
double totalUtility(const std::vector<dpc::UtilityPtr> &utilities,
                    const std::vector<double> &caps);

/**
 * Cap / settle verdict of one control event.  The caller reports the
 * state after every round r = 1, 2, ...:
 *
 *  - the event is *capped* at the first round after which
 *    sum caps <= P and utility >= kQualityBar * the KKT optimum;
 *  - it is *settled* at the round the allocator's own stop rule
 *    (converged()) first holds;
 *  - it *fails* if any round ends with sum caps > P, if it does not
 *    settle within `max_rounds`, if the utility at settle is below
 *    the bar, or if the caller records an outside failure (sharded
 *    parity, a failed sharded run).
 *
 * The first failure reason is kept; later ones are not recorded.
 */
class EventCheck
{
  public:
    EventCheck(double budget, double opt_utility,
               std::size_t max_rounds);

    /** Whether round() needs the utility (i.e. not yet capped). */
    bool needsUtility() const { return cap_round_ == 0; }

    /**
     * State after round `r`.  `utility` is read only while
     * needsUtility() or when `settled`.  @return true when r is the
     * cap round.
     */
    bool round(std::size_t r, double sum_caps, double utility,
               bool settled);

    /** Record a failure found outside the criterion. */
    void fail(const std::string &reason);

    bool failed() const { return !failure_.empty(); }
    const std::string &failure() const { return failure_; }
    /** 0 until capped. */
    std::size_t capRound() const { return cap_round_; }
    /** 0 until settled. */
    std::size_t settleRound() const { return settle_round_; }
    /** Utility / KKT optimum at settle (0 until settled). */
    double settleQuality() const { return settle_quality_; }

  private:
    /** The event ended without settling after `r` rounds. */
    void giveUp(std::size_t r);

    double budget_;
    double opt_utility_;
    std::size_t max_rounds_;
    std::size_t cap_round_ = 0;
    std::size_t settle_round_ = 0;
    double settle_quality_ = 0.0;
    std::string failure_;
};

/**
 * Linear-interpolated percentile (q in [0, 1]) of `v`, the
 * definition numpy uses by default.  Empty input gives 0.
 */
double percentile(std::vector<double> v, double q);

/** Samples strictly above the q-th percentile's rank: n - ceil(q n).
 * A percentile is reported with at least ten samples beyond it. */
std::size_t samplesBeyond(std::size_t n, double q);

/** One timed interval of the traced run. */
struct Span
{
    /** Static name, "layer.call". */
    const char *name = "";
    /** Event id (-1 for set-up spans). */
    std::int64_t event = -1;
    /** Index of the parent span, -1 for a root. */
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * In-memory span store: the traced run records spans here and writes
 * them out once the run is over.  A disabled recorder records
 * nothing (the untraced run), so the timing code is the same
 * in both runs apart from the push.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a closed span; @return its index (-1 when disabled). */
    std::int64_t add(const char *name, std::int64_t event,
                     std::int64_t parent, std::int64_t start_ns,
                     std::int64_t end_ns)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({name, event, parent, start_ns, end_ns});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /** Open a span whose end is set later with close(). */
    std::int64_t open(const char *name, std::int64_t event,
                      std::int64_t parent, std::int64_t start_ns)
    {
        return add(name, event, parent, start_ns, start_ns);
    }

    void close(std::int64_t id, std::int64_t end_ns)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
    }

    /** A deque: growing it never moves recorded spans, so the
     * traced run has no reallocation stalls. */
    const std::deque<Span> &spans() const { return spans_; }

    /**
     * Per span, the ns its direct children cover (children of one
     * parent never overlap: ttc is single-threaded).
     */
    std::vector<std::int64_t> childCoverageNs() const;

    /** Tab-separated, one span per line under a header row; times
     * relative to the first span's start. */
    void writeTsv(const std::string &path) const;

  private:
    bool enabled_;
    std::deque<Span> spans_;
};

/** Monotonic clock in ns. */
std::int64_t nowNs();

/** Outcome of one control event. */
struct EventRecord
{
    std::int64_t id = 0;
    /** Time inside the call(s) announcing the event (ns). */
    double call_ns = 0.0;
    /** Announce -> end of the cap round, checks excluded (ns). */
    double cap_ns = 0.0;
    /** Announce -> end of the settle round, checks excluded (ns). */
    double settle_ns = 0.0;
    std::size_t cap_round = 0;
    std::size_t settle_round = 0;
    /** Utility / KKT optimum at the event's end point. */
    double quality = 0.0;
    bool failed = false;
    std::string failure;
    /** setBudget lowered caps inside the call (emergency shed). */
    bool shed = false;
    /** Oracle value and budget, folded into the input digest. */
    double opt_utility = 0.0;
    double budget = 0.0;
};

/**
 * Drives one single-process event: `announce` makes the event's
 * library call(s) -- recording their spans under the event span id
 * it is given and returning the ns spent inside them -- then step()
 * runs until converged() (or the EventCheck gives up).  After every
 * round the caps are checked against `prob` (the problem in force)
 * and `opt_utility`; those checks, and `after_call` (run once after
 * the announcement), are timed as bench.check spans and subtracted
 * from the event's times.
 */
EventRecord
driveLocalEvent(dpc::DibaAllocator &alloc,
                const dpc::AllocationProblem &prob, double opt_utility,
                std::int64_t id, SpanLog &log,
                const std::function<double(std::int64_t)> &announce,
                const std::function<void(EventRecord &)> &after_call);

/**
 * One event measured in several replays of the same inputs from the
 * same state.  Its times are the replays' mean; the rest is the first
 * replay's.  The round engine is deterministic, so replays that
 * disagree on the cap round, the settle round or the quality make
 * the event fail.  The first failure is kept.
 */
EventRecord mergeReplays(const std::vector<EventRecord> &replays);

} // namespace ttc

#endif // TTC_CRITERION_HH
