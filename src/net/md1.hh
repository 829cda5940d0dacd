/**
 * @file
 * M/D/1 queueing-latency estimator for the intra-unit crossbar.
 *
 * The paper models intra-unit network queueing latency with an M/D/1
 * model (Table 5, citing Bhat's queueing-theory text): Poisson arrivals,
 * deterministic service. Mean waiting time in queue:
 *
 *      Wq = rho / (2 * mu * (1 - rho)),   rho = lambda / mu
 *
 * where mu = 1 / serviceTime. We estimate lambda online with an
 * exponentially weighted moving average of message inter-arrival times,
 * and clamp rho below 1 so transient bursts produce large-but-finite
 * latencies instead of infinities.
 *
 * Zero-wait short-circuit: with S = serviceTicks, an average
 * inter-arrival time above S*(S+2) means rho < 1/(S+2), so
 * Wq = rho*S / (2*(1 - rho)) < S / (2*(S+1)) < 1/2 and the truncated
 * wait is 0 ticks whatever the rounding. onArrival() then returns 0
 * without evaluating the formula; the result is bit-identical.
 */

#ifndef SYNCRON_NET_MD1_HH
#define SYNCRON_NET_MD1_HH

#include "common/types.hh"

namespace syncron::net {

/** Online M/D/1 waiting-time estimator. */
class Md1Estimator
{
  public:
    /**
     * @param serviceTicks deterministic service time per message
     * @param maxRho       utilization clamp (default 0.95)
     */
    explicit Md1Estimator(Tick serviceTicks, double maxRho = 0.95);

    /**
     * Records a message arrival at @p now and returns the estimated
     * queueing delay (ticks) this message experiences.
     */
    Tick onArrival(Tick now);

    /** Current utilization estimate rho in [0, maxRho]. */
    double rho() const;

    /** Queueing delay at the current utilization (no state update). */
    Tick currentDelay() const;

    /**
     * Closed-form M/D/1 mean waiting time in ticks:
     * Wq = rho / (2 * mu * (1 - rho)) with mu = 1 / serviceTicks.
     * It and currentDelay() share one evaluation of the formula (in
     * md1.cc): currentDelay() at the online rho estimate with 2*mu
     * hoisted into the constructor, this at a known rho for the
     * open-loop load subsystem's analytic reference (and its tests).
     */
    static double waitingTicks(double rho, Tick serviceTicks);

  private:
    double mu_;    ///< 1 / serviceTicks, hoisted out of the hot path
    double twoMu_; ///< 2 * mu_
    double maxRho_;
    /// S*(S+2): above this average inter-arrival the wait truncates to 0
    double zeroWaitAbove_;
    Tick lastArrival_ = 0;
    bool seenArrival_ = false;
    double avgInterArrival_ = 0.0; ///< EWMA of inter-arrival ticks
};

} // namespace syncron::net

#endif // SYNCRON_NET_MD1_HH
