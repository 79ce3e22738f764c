"""Every threshold the package uses to classify, flag, refuse or report ok.

A value counts as zero when it is strictly below its tolerance (|lambda| <
ZERO_TOL is a zero mode); a defect or residual passes when it is at most its
tolerance, and a NaN defect never passes.
"""

import sys

ZERO_TOL = 1e-9                 # |lambda| below this: a zero mode, infinite decay rate
UNIT_TOL = 1e-9                 # |lambda| >= 1 - this: unit modulus; |lambda - 1| <= this: one
UNIT_BOUNDARY_TOL = 1e-6        # |lambda| within this of 1: the ergodic class is flagged boundary
UNITALITY_TOL = 1e-12           # trivial-mode residual above this: the channel is not unital
GATE_UNITARY_TOL = 1e-12        # max-entry defect of U U^dag - 1 accepted for any gate: the
                                # channel's unitality check already refused gates above a few
                                # 1e-12 (~5e-12 at q = 3), so a looser bound decided nothing
DUALITY_TOL = 1e-8              # max-entry defect of U^R1 (U^T2) up to this: dual (T-dual)
THRESHOLD_BOUNDARY_TOL = 1e-12  # e_p this close to a threshold e*_{p,k}: boundary case
POLAR_RANK_TOL = 1e-13          # smallest singular value below this: rank-deficient polar step
FLOW_TOL = 1e-10                # realign-polar flow stops once E(S) - E(U) is below this
REFLOW_TOL = 1e-13              # the same, flowing a kicked 2-unitary back to dual gates
BOUND_SLACK_TOL = 1e-9          # eigenvalue-bound slack above minus this: the bound holds
CAT_CHECK_TOL = 1e-12           # cat-map |lambda_1| closed form vs eigensolve
UNISTOCHASTIC_TOL = 1e-10       # spectrum residual of the unistochastic reduction that is ok
RESHUFFLE_TOL = 1e-12           # reshuffle-identity residual accepted by the oracle
CONE_TOL = 1e-10                # light-cone residual accepted by `circuit verify`
SITE_TOL = 1e-12                # a site position further than this from a half-integer: refused
DELTOID_SHRINK = 1e-6           # eigenvalues shrink by this factor before the deltoid test (cusp)
ORACLE_SIGMAS = 3.0             # Haar-identity MC mean this many stderr off the closed form: fails


def channel_rank_tol(q):
    """A singular value of a deflated q^2 x q^2 channel at most this is zero.

    numpy's `matrix_rank` rule, size x eps x sigma_max, with the unital
    channel's norm bound 1 in place of sigma_max: on the fixtures the kept
    values are >= 0.03 and the dropped ones <= 5.4e-16."""
    return q * q * sys.float_info.epsilon
