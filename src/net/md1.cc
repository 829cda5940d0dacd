#include "net/md1.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron::net {

namespace {
/// EWMA smoothing factor for inter-arrival times. Small enough to damp
/// single-message noise, large enough to track phase changes within a few
/// tens of messages.
constexpr double kAlpha = 0.05;

/** Wq = rho / (2 * mu * (1 - rho)) given @p twoMu = 2 * mu — the one
 *  evaluation of the formula. */
inline double
md1Wait(double rho, double twoMu)
{
    SYNCRON_ASSERT(rho >= 0.0 && rho < 1.0,
                   "utilization " << rho << " outside [0, 1)");
    if (rho <= 0.0)
        return 0.0;
    return rho / (twoMu * (1.0 - rho));
}

double
muOf(Tick serviceTicks)
{
    return 1.0 / static_cast<double>(serviceTicks);
}
} // namespace

Md1Estimator::Md1Estimator(Tick serviceTicks, double maxRho)
    : mu_(muOf(serviceTicks)), twoMu_(2.0 * mu_), maxRho_(maxRho),
      zeroWaitAbove_(static_cast<double>(serviceTicks)
                     * (static_cast<double>(serviceTicks) + 2.0))
{
    SYNCRON_ASSERT(serviceTicks > 0, "service time must be positive");
    SYNCRON_ASSERT(maxRho_ > 0.0 && maxRho_ < 1.0, "maxRho out of range");
}

Tick
Md1Estimator::onArrival(Tick now)
{
    if (!seenArrival_) {
        seenArrival_ = true;
        lastArrival_ = now;
        return 0;
    }

    const double inter = static_cast<double>(now - lastArrival_);
    lastArrival_ = now;
    if (avgInterArrival_ <= 0.0)
        avgInterArrival_ = inter > 0.0 ? inter : 1.0;
    else
        avgInterArrival_ =
            (1.0 - kAlpha) * avgInterArrival_ + kAlpha * std::max(inter, 1.0);

    if (avgInterArrival_ > zeroWaitAbove_)
        return 0;
    return currentDelay();
}

double
Md1Estimator::rho() const
{
    if (avgInterArrival_ <= 0.0)
        return 0.0;
    const double lambda = 1.0 / avgInterArrival_;
    return std::min(lambda / mu_, maxRho_);
}

Tick
Md1Estimator::currentDelay() const
{
    return static_cast<Tick>(md1Wait(rho(), twoMu_));
}

double
Md1Estimator::waitingTicks(double rho, Tick serviceTicks)
{
    SYNCRON_ASSERT(serviceTicks > 0, "service time must be positive");
    return md1Wait(rho, 2.0 * muOf(serviceTicks));
}

} // namespace syncron::net
