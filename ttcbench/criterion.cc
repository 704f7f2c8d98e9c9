#include "criterion.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hh"

namespace ttc {

double
sumCaps(const std::vector<double> &caps)
{
    double s = 0.0;
    for (double p : caps)
        s += p;
    return s;
}

double
totalUtility(const std::vector<dpc::UtilityPtr> &utilities,
             const std::vector<double> &caps)
{
    double u = 0.0;
    for (std::size_t i = 0; i < caps.size(); ++i)
        u += utilities[i]->value(caps[i]);
    return u;
}

EventCheck::EventCheck(double budget, double opt_utility,
                       std::size_t max_rounds)
    : budget_(budget), opt_utility_(opt_utility),
      max_rounds_(max_rounds)
{
}

bool
EventCheck::round(std::size_t r, double sum_caps, double utility,
                  bool settled)
{
    if (sum_caps > budget_ && !failed()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "over budget after round %zu: sum caps %.6f > "
                      "P %.6f",
                      r, sum_caps, budget_);
        failure_ = buf;
    }
    bool cap_now = false;
    if (cap_round_ == 0 && sum_caps <= budget_ &&
        utility >= kQualityBar * opt_utility_) {
        cap_round_ = r;
        cap_now = true;
    }
    if (settled && settle_round_ == 0) {
        settle_round_ = r;
        settle_quality_ = utility / opt_utility_;
        if (settle_quality_ < kQualityBar && !failed()) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "settled at round %zu at %.5f of the KKT "
                          "optimum (< %.2f)",
                          r, settle_quality_, kQualityBar);
            failure_ = buf;
        }
    } else if (!settled && r >= max_rounds_) {
        giveUp(r);
    }
    return cap_now;
}

void
EventCheck::giveUp(std::size_t r)
{
    if (failed())
        return;
    char buf[96];
    std::snprintf(buf, sizeof buf, "not settled after %zu rounds", r);
    failure_ = buf;
}

void
EventCheck::fail(const std::string &reason)
{
    if (!failed())
        failure_ = reason;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    const auto at = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return n > at ? n - at : 0;
}

std::vector<std::int64_t>
SpanLog::childCoverageNs() const
{
    std::vector<std::int64_t> cov(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            cov[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
    return cov;
}

void
SpanLog::writeTsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write span log " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "id\tname\tevent\tparent\tstart_ns\tend_ns\n");
    std::size_t i = 0;
    for (const Span &s : spans_)
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\n", i++,
                     s.name, static_cast<long long>(s.event),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.start_ns - t0),
                     static_cast<long long>(s.end_ns - t0));
    if (std::fclose(f) != 0)
        throw std::runtime_error("error writing span log " + path);
}

EventRecord
driveLocalEvent(dpc::DibaAllocator &alloc,
                const dpc::AllocationProblem &prob, double opt_utility,
                std::int64_t id, SpanLog &log,
                const std::function<double(std::int64_t)> &announce,
                const std::function<void(EventRecord &)> &after_call)
{
    EventRecord rec;
    rec.id = id;
    rec.opt_utility = opt_utility;
    rec.budget = prob.budget;
    EventCheck chk(prob.budget, opt_utility, alloc.maxIterations());
    dpc::Rng rng(1);

    const std::int64_t t0 = nowNs();
    const std::int64_t ev = log.open("event", id, -1, t0);
    rec.call_ns = announce(ev);
    std::int64_t checks = 0;
    if (after_call) {
        const std::int64_t s = nowNs();
        after_call(rec);
        const std::int64_t e = nowNs();
        log.add("bench.check", id, ev, s, e);
        checks += e - s;
    }
    std::int64_t end = t0;
    for (std::size_t r = 1;; ++r) {
        const std::int64_t s = nowNs();
        alloc.step(rng);
        const bool settled = alloc.converged();
        const std::int64_t e = nowNs();
        log.add("alloc.step", id, ev, s, e);

        const std::vector<double> &caps = alloc.power();
        const double sum = sumCaps(caps);
        const double u = chk.needsUtility() || settled
                             ? totalUtility(prob.utilities, caps)
                             : 0.0;
        const bool cap_now = chk.round(r, sum, u, settled);
        const std::int64_t c = nowNs();
        log.add("bench.check", id, ev, e, c);
        end = c;
        if (cap_now) {
            rec.cap_round = r;
            rec.cap_ns = static_cast<double>(e - t0 - checks);
        }
        if (settled) {
            rec.settle_round = r;
            rec.settle_ns = static_cast<double>(e - t0 - checks);
            rec.quality = chk.settleQuality();
        }
        checks += c - e;
        if (settled || chk.failed())
            break;
    }
    log.close(ev, end);
    rec.failed = chk.failed();
    rec.failure = chk.failure();
    return rec;
}

EventRecord
mergeReplays(const std::vector<EventRecord> &replays)
{
    if (replays.empty())
        throw std::invalid_argument("mergeReplays: no replays");
    EventRecord out = replays.front();
    const double n = static_cast<double>(replays.size());
    out.call_ns = out.cap_ns = out.settle_ns = 0.0;
    for (std::size_t k = 0; k < replays.size(); ++k) {
        const EventRecord &r = replays[k];
        out.call_ns += r.call_ns / n;
        out.cap_ns += r.cap_ns / n;
        out.settle_ns += r.settle_ns / n;
        if (out.failed)
            continue;
        if (r.failed) {
            out.failed = true;
            out.failure = r.failure;
        } else if (r.id != out.id || r.cap_round != out.cap_round ||
                   r.settle_round != out.settle_round ||
                   r.quality != out.quality) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "replay %zu diverged: event %lld vs %lld, cap "
                          "round %zu vs %zu, settle round %zu vs %zu, "
                          "quality %.17g vs %.17g",
                          k, static_cast<long long>(r.id),
                          static_cast<long long>(out.id), r.cap_round,
                          out.cap_round, r.settle_round,
                          out.settle_round, r.quality, out.quality);
            out.failed = true;
            out.failure = buf;
        }
    }
    return out;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace ttc
