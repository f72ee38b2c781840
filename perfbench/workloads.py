"""Workloads of the evofam benchmark and the exit code each invocation should return."""

# Intended exit code per (pipeline, config): 0, or 1 for the deliberate
# non-elliptic failure.  An invocation that raises or returns another
# code counts as failed.  At the time of writing `evolve` and
# `convergence` on h1 return 1 (the product rule is exact on an
# autonomous symbol, and fitting an order to roundoff fails); they stay
# in light-suite and count as failed until the program is fixed.
INTENDED_EXIT = {
    ("check", "td1"): 0,
    ("check", "nonelliptic"): 1,
    ("perturb", "h1"): 0,
    ("perturb", "td1"): 0,
    ("evolve", "h1"): 0,
    ("convergence", "h1"): 0,
    ("favard", "h1"): 0,
    ("evolve", "td1"): 0,
    ("convergence", "td1"): 0,
    ("favard", "td1"): 0,
    ("transport", "transport"): 0,
}

# A workload is a cycle of ops; an op is a tuple of (pipeline, config)
# invocations run back to back, and its wall time is one op-time sample.
# One closed-loop client runs the cycle over and over.
#   certify           - assumptions certifiers only; nonelliptic takes the
#                       non-finite / cap path and should exit 1.
#   perturb-commuting - autonomous symbol, multiplier family with a
#                       closed-form oracle; no assumptions call.
#   perturb-timedep   - trig coefficient, mollifier changing with every
#                       sigma and no oracle; time-keyed caches gain little.
#   light-suite       - product-formula engine, Favard norms, transport,
#                       and the per-invocation config and report costs.
WORKLOADS = {
    "certify": ((("check", "td1"),), (("check", "nonelliptic"),)),
    "perturb-commuting": ((("perturb", "h1"),),),
    "perturb-timedep": ((("perturb", "td1"),),),
    "light-suite": ((("evolve", "h1"), ("convergence", "h1"), ("favard", "h1"),
                     ("evolve", "td1"), ("convergence", "td1"), ("favard", "td1"),
                     ("transport", "transport")),),
}


def configs(workload: str) -> list[str]:
    """Config stems a workload reads, in first-use order."""
    stems = [c for op in WORKLOADS[workload] for _, c in op]
    return list(dict.fromkeys(stems))
