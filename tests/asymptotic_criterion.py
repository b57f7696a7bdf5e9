"""The paper's closed form of the t -> inf GHZ1 verdict, the oracle that
acceptance test c10 and the asymptotic-criterion tests of test_witness.py
hold the pipeline (asymptotic_state, then xstate_criterion) against.

The package computes the verdict one way, through that pipeline; this
formula is an independent reference for it, reported as a CriterionReport
the same way as the pipeline's pair (1, 8).
"""

import math

from sgadmem.witness import _criterion


def asymptotic_ghz1_criterion(alpha, n, mu):
    """xstate_criterion's pair (1, 8) in closed form, for the t -> inf state
    of a GHZ-plus-white-noise mixture under the memory channel: lhs is the
    surviving coherence and rhs the populations' bound,

        lhs = (n(1+n))^{3/2} alpha (1-mu) / (1+2n)^3,    rhs = 3 sqrt(u v),
        u = n^2(1+n)(1-mu)/(1+2n)^3 + mu(1-alpha)/8,
        v = n(1+n)^2(1-mu)/(1+2n)^3 + mu(1-alpha)/8,

    with margin = lhs - rhs, and violated (the asymptotic state is detected)
    when margin > MARGIN_TOL.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if n < 0.0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    den = (1.0 + 2.0 * n) ** 3
    u = n * n * (1.0 + n) * (1.0 - mu) / den + mu * (1.0 - alpha) / 8.0
    v = n * (1.0 + n) ** 2 * (1.0 - mu) / den + mu * (1.0 - alpha) / 8.0
    return _criterion((n * (1.0 + n)) ** 1.5 * alpha * (1.0 - mu) / den, 3.0 * math.sqrt(u * v))
