"""Numerical certification of the sectoriality, stability, equivalence and
Lipschitz hypotheses for a time-dependent symbol family.

Every checker measures its constant as a maximum over a seeded sample
plan and never claims an analytic disproof: when a sampled ratio exceeds
the plan's cap the verdict is "violation at cap" with the witness sample
recorded.  All "for all lambda in the sector" conditions are sampled on
log-spaced moduli along the boundary rays plus interior rays; refinement
stability (constants move less than 5 percent when the plan doubles) is
reported in lieu of proof.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .spectral import Grid, GridFunction, extrapolated_norm, norm
from .symbols import SymbolSpec


@dataclass(frozen=True)
class SamplePlan:
    """Densities and seeds for every sampling sweep; `refined` doubles them."""

    seed: int = 1
    time_samples: int = 128
    rays: int = 3                  # interior ray pairs; args = k/rays * theta
    moduli_per_ray: int = 32
    modulus_range: tuple[float, float] = (1e-3, 1e6)
    pair_grid: int = 48
    pair_deltas: tuple[float, ...] = (1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    resolvent_pair_grid: int = 16
    resolvent_moduli: int = 12
    resolvent_modulus_range: tuple[float, float] = (1e-2, 1e4)
    tau_samples: int = 12
    kato_lambdas: int = 12
    kato_partitions: int = 12
    kato_kmax: int = 8
    cap: float = 1e8

    def refined(self, factor: int = 2) -> "SamplePlan":
        return replace(
            self,
            time_samples=self.time_samples * factor,
            moduli_per_ray=self.moduli_per_ray * factor,
            pair_grid=self.pair_grid * factor,
            resolvent_pair_grid=self.resolvent_pair_grid * factor,
            resolvent_moduli=self.resolvent_moduli * factor,
            tau_samples=self.tau_samples * factor,
            kato_lambdas=self.kato_lambdas * factor,
            kato_partitions=self.kato_partitions * factor,
        )


def _symbol_matrix(spec: SymbolSpec, grid: Grid, ts: np.ndarray) -> np.ndarray:
    """a(t_i, xi_j), shape (times, bins), bins in the order of `grid.xi_rows()`."""
    return spec.time_matrix(ts, grid.xi_axes()).reshape(len(ts), -1)


def _sector_lambdas(theta: float, rays: int, moduli: np.ndarray) -> np.ndarray:
    """lambda = modulus * e^{i phi} on 2 rays + 1 arguments phi in [-theta, theta]."""
    fractions = np.linspace(-1.0, 1.0, 2 * rays + 1)
    return (moduli[None, :] * np.exp(1j * theta * fractions[:, None])).reshape(-1)


def _refined(measure, plan: SamplePlan):
    """Base results of `measure` (constant first), the constant on the
    refined plan, and the relative delta between the two constants."""
    base = measure(plan)
    fine = measure(plan.refined())[0]
    return base, fine, abs(fine - base[0]) / max(base[0], 1e-300)


@dataclass(frozen=True)
class SectorParams:
    """Measured sector bound: max of |lambda|/|lambda + a| and 1/|a|."""

    theta: float
    m: float
    verdict: bool
    witness: dict
    samples: int
    refined_m: float = float("nan")
    refinement_delta: float = float("nan")


def _sector_measure(spec: SymbolSpec, grid: Grid, theta: float, plan: SamplePlan):
    """Sector constant M on `plan` (no refinement), its witness and the
    sample count."""
    if not np.pi / 2 < theta < np.pi:
        raise DomainError(f"theta must lie in (pi/2, pi), got {theta}")
    ts = np.linspace(0.0, spec.horizon, plan.time_samples)
    a = _symbol_matrix(spec, grid, ts)
    lams = _sector_lambdas(theta, plan.rays,
                           np.geomspace(*plan.modulus_range, plan.moduli_per_ray))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.abs(a)
    inv = np.where(np.isfinite(inv), inv, plan.cap * 2)
    i, j = np.unravel_index(np.argmax(inv), inv.shape)
    m_meas = float(inv[i, j])
    worst = {"kind": "inverse_bound", "value": m_meas, "t": float(ts[i]),
             "lambda": None, "xi": grid.xi_rows()[j].tolist()}
    for lam in lams:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(lam) / np.abs(lam + a)
        ratio = np.where(np.isfinite(ratio), ratio, plan.cap * 2)
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        val = float(ratio[i, j])
        if val > m_meas:
            m_meas = val
            worst = {"kind": "resolvent_ratio", "value": val,
                     "t": float(ts[i]),
                     "lambda": [float(lam.real), float(lam.imag)],
                     "xi": grid.xi_rows()[j].tolist()}
    return m_meas, worst, len(ts) * len(lams)


def check_sector(spec: SymbolSpec, grid: Grid, theta: float,
                 plan: SamplePlan = SamplePlan()) -> SectorParams:
    """Assumption: resolvent bound M/|lambda| on the sector of angle theta.

    Samples lambda on the boundary rays arg = +-theta, interior rays and
    the positive axis, moduli log-spaced; M also covers the uniform bound
    on |a|^{-1} (the inverse-operator part of the assumption).
    """
    (m_base, witness, count), m_fine, delta = _refined(
        lambda p: _sector_measure(spec, grid, theta, p), plan)
    return SectorParams(theta=theta, m=m_base,
                        verdict=bool(m_base <= plan.cap),
                        witness=witness, samples=count,
                        refined_m=m_fine, refinement_delta=delta)


def largest_passing_theta(spec: SymbolSpec, grid: Grid,
                          plan: SamplePlan = SamplePlan(),
                          thetas: np.ndarray | None = None) -> float:
    """Largest sampled sector angle whose `check_sector` verdict passes (nan
    if none); the verdict reads the base plan only, so only that is measured."""
    if thetas is None:
        thetas = np.pi * np.linspace(0.55, 0.95, 9)
    best = float("nan")
    for theta in thetas:
        if _sector_measure(spec, grid, float(theta), plan)[0] <= plan.cap:
            best = float(theta)
    return best


@dataclass(frozen=True)
class StabilityCertificate:
    """Kato stability: resolvent products and semigroup products."""

    m: float
    omega: float
    kmax: int
    partitions_tested: int
    max_resolvent_ratio: float     # worst product / (M / (lambda - omega)^k)
    max_semigroup_ratio: float     # worst product / (M e^{omega sum tau})
    verdict: bool
    refined_ratio: float = float("nan")
    refinement_delta: float = float("nan")


def _partitions(T: float, k: int, count: int, rng: np.random.Generator,
                anchors: np.ndarray):
    """Random sorted partitions plus adversarial all-equal and endpoint mixes."""
    parts = [np.sort(rng.uniform(0.0, T, k)) for _ in range(count)]
    parts.extend(np.full(k, float(t)) for t in anchors)
    for j in range(1, k):
        parts.append(np.array([0.0] * j + [T] * (k - j)))
    return parts


def check_kato_stability(spec: SymbolSpec, grid: Grid,
                         plan: SamplePlan = SamplePlan(),
                         m: float = 1.0, omega: float | None = None,
                         tol: float = 1e-9) -> StabilityCertificate:
    """Certify the product bounds over ordered partitions up to k = kmax.

    Multipliers commute, so the product norm equals the grid maximum of
    the product of the per-factor moduli.  When `omega` is omitted it is
    taken as -(min over the sampled times and grid of Re a), the natural
    quasi-contractivity bound for this symbol class.
    """

    def measure(p: SamplePlan):
        rng = np.random.default_rng(p.seed)
        ts = np.linspace(0.0, spec.horizon, p.time_samples)
        a = _symbol_matrix(spec, grid, ts)
        w = omega if omega is not None else -float(np.min(a.real))
        lams = w + np.geomspace(1e-1, 1e3, p.kato_lambdas)
        anchors = np.linspace(0.0, spec.horizon, 9)
        t_index = lambda t: int(round(t / spec.horizon * (len(ts) - 1)))

        worst_res, worst_semi, tested = 0.0, 0.0, 0
        for k in range(1, p.kato_kmax + 1):
            parts = _partitions(spec.horizon, k, p.kato_partitions, rng, anchors)
            tested += len(parts)
            for part in parts:
                rows = a[[t_index(t) for t in part], :]
                for lam in lams:
                    log_prod = -np.sum(np.log(np.abs(lam + rows)), axis=0)
                    bound = np.log(m) - k * np.log(lam - w)
                    ratio = float(np.exp(np.max(log_prod) - bound))
                    worst_res = max(worst_res, ratio)
                # semigroup form with random nonnegative durations
                taus = rng.uniform(0.0, spec.horizon / k, k)
                log_semi = -np.sum(taus[:, None] * rows.real, axis=0)
                bound = np.log(m) + w * float(np.sum(taus))
                worst_semi = max(worst_semi, float(np.exp(np.max(log_semi) - bound)))
        return max(worst_res, worst_semi), w, worst_res, worst_semi, tested

    (base, w, res_base, semi_base, tested), fine, delta = _refined(measure, plan)
    return StabilityCertificate(
        m=m, omega=w, kmax=plan.kato_kmax, partitions_tested=tested,
        max_resolvent_ratio=res_base, max_semigroup_ratio=semi_base,
        verdict=bool(base <= 1.0 + tol),
        refined_ratio=fine, refinement_delta=delta)


def _pair_set(T: float, grid_count: int, deltas) -> list[tuple[float, float]]:
    """Ordered pairs from a uniform base grid plus centered near-coincident
    pairs at every base point (and at T/2, where degenerate configs jump)."""
    base = np.linspace(0.0, T, grid_count)
    pairs = [(float(s), float(t)) for i, s in enumerate(base)
             for t in base[i + 1:]]
    centers = np.append(base, 0.5 * T)
    for delta in deltas:
        for c in centers:
            s, t = c - delta / 2.0, c + delta / 2.0
            if s >= 0.0 and t <= T and t > s:
                pairs.append((s, t))
    return pairs


def _pair_table(spec: SymbolSpec, grid: Grid, grid_count: int, deltas):
    """`_pair_set` pairs as (s, t, row_s, row_t), with the symbol matrix
    over the sorted union of their times."""
    pairs = _pair_set(spec.horizon, grid_count, deltas)
    times = sorted({t for pair in pairs for t in pair})
    index = {t: i for i, t in enumerate(times)}
    a = _symbol_matrix(spec, grid, np.array(times))
    return [(s, t, index[s], index[t]) for s, t in pairs], a


@dataclass(frozen=True)
class LipschitzComponent:
    value: float
    verdict: bool            # finite below cap
    witness: dict
    pair_count: int
    refined_value: float = float("nan")
    refinement_delta: float = float("nan")


def check_operator_lipschitz(spec: SymbolSpec, grid: Grid,
                             plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """L = max over pairs of max_xi |1 - a(t,.)/a(s,.)| / |t - s|.

    In the multiplier model this is exactly ||Id - A(t) A(s)^{-1}|| and
    coincides with the extrapolated version (the symbols commute).
    """

    def measure(p: SamplePlan):
        pairs, a = _pair_table(spec, grid, p.pair_grid, p.pair_deltas)
        best, witness = 0.0, {}
        for s, t, i, k in pairs:
            # |1 - a(t)/a(s)| in difference form: exact 0 for autonomous rows
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.abs(a[i] - a[k]) / np.abs(a[i]) / (t - s)
            q = np.where(np.isfinite(q), q, p.cap * 2)
            j = int(np.argmax(q))
            if float(q[j]) > best:
                best = float(q[j])
                witness = {"t": t, "s": s, "xi": grid.xi_rows()[j].tolist(), "value": best}
        return best, witness, len(pairs)

    (base, witness, count), fine, delta = _refined(measure, plan)
    return LipschitzComponent(value=base, verdict=bool(base <= plan.cap),
                              witness=witness, pair_count=count,
                              refined_value=fine, refinement_delta=delta)


def check_resolvent_lipschitz(spec: SymbolSpec, grid: Grid, theta: float,
                              plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """C' = max of |lambda| max_xi |R(lambda,a(t)) - R(lambda,a(s))| / |t-s|
    over pairs and sector lambda samples."""

    def measure(p: SamplePlan):
        pairs, a = _pair_table(spec, grid, p.resolvent_pair_grid,
                               p.pair_deltas)
        lams = _sector_lambdas(theta, p.rays,
                               np.geomspace(*p.resolvent_modulus_range,
                                            p.resolvent_moduli))
        best, witness = 0.0, {}
        for lam in lams:
            with np.errstate(divide="ignore", invalid="ignore"):
                r = 1.0 / (lam + a)
            for s, t, i, k in pairs:
                q = np.abs(lam) * np.abs(r[k] - r[i]) / (t - s)
                q = np.where(np.isfinite(q), q, p.cap * 2)
                j = int(np.argmax(q))
                if float(q[j]) > best:
                    best = float(q[j])
                    witness = {"t": t, "s": s,
                               "lambda": [float(lam.real), float(lam.imag)],
                               "xi": grid.xi_rows()[j].tolist(), "value": best}
        return best, witness, len(pairs) * len(lams)

    (base, witness, count), fine, delta = _refined(measure, plan)
    return LipschitzComponent(value=base, verdict=bool(base <= plan.cap),
                              witness=witness, pair_count=count,
                              refined_value=fine, refinement_delta=delta)


def check_semigroup_lipschitz(spec: SymbolSpec, grid: Grid,
                              plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """C = max over tau, pairs of max_xi |e^{-tau a(t)} - e^{-tau a(s)}| / |t-s|."""

    def measure(p: SamplePlan):
        pairs, a = _pair_table(spec, grid, p.resolvent_pair_grid,
                               p.pair_deltas)
        taus = np.geomspace(1e-3, spec.horizon, p.tau_samples)
        best, witness = 0.0, {}
        for tau in taus:
            e = np.exp(-tau * a)
            for s, t, i, k in pairs:
                q = np.abs(e[k] - e[i]) / (t - s)
                j = int(np.argmax(q))
                if float(q[j]) > best:
                    best = float(q[j])
                    witness = {"t": t, "s": s, "tau": float(tau),
                               "xi": grid.xi_rows()[j].tolist(), "value": best}
        return best, witness, len(pairs) * len(taus)

    (base, witness, count), fine, delta = _refined(measure, plan)
    return LipschitzComponent(value=base, verdict=bool(base <= plan.cap),
                              witness=witness, pair_count=count,
                              refined_value=fine, refinement_delta=delta)


@dataclass(frozen=True)
class EquivalenceReport:
    """kappa with 1/kappa <= ||x||_{X_-1(A(t))} / ||x||_{X_-1} <= kappa."""

    kappa: float
    witness_upper: dict
    witness_lower: dict
    verdict: bool
    refined_kappa: float = float("nan")
    refinement_delta: float = float("nan")


def check_norm_equivalence(spec: SymbolSpec, grid: Grid,
                           plan: SamplePlan = SamplePlan()) -> EquivalenceReport:
    """kappa = max over t, xi of max(|a(t)/a(0)|, |a(0)/a(t)|), exact on the
    diagonal model (both gauges are diagonal with those weights)."""

    def measure(p: SamplePlan):
        ts = np.linspace(0.0, spec.horizon, p.time_samples)
        a = _symbol_matrix(spec, grid, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(a / a[0][None, :])
        ratio = np.where(np.isfinite(ratio), ratio, p.cap * 2)
        iu, ju = np.unravel_index(np.argmax(ratio), ratio.shape)
        upper = {"t": float(ts[iu]), "xi": grid.xi_rows()[ju].tolist(),
                 "value": float(ratio[iu, ju])}
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / ratio
        inv = np.where(np.isfinite(inv), inv, p.cap * 2)
        il, jl = np.unravel_index(np.argmax(inv), inv.shape)
        lower = {"t": float(ts[il]), "xi": grid.xi_rows()[jl].tolist(),
                 "value": float(inv[il, jl])}
        return max(upper["value"], lower["value"]), upper, lower

    (kappa, upper, lower), kappa_fine, delta = _refined(measure, plan)
    return EquivalenceReport(kappa=kappa, witness_upper=upper,
                             witness_lower=lower,
                             verdict=bool(np.isfinite(kappa) and kappa <= plan.cap),
                             refined_kappa=kappa_fine, refinement_delta=delta)


def check_commuting(spec: SymbolSpec, grid: Grid, vectors,
                    draws: int = 3, seed: int = 5) -> float:
    """Max relative defect of R(lambda,A(t)) R(mu,A(s)) against the swapped
    order on test vectors.  Validates the implementation (diagonal
    operators commute exactly); expected <= 1e-12."""
    from .semigroup import FrozenOperator, frozen_resolvent

    rng = np.random.default_rng(seed)
    worst = 0.0
    for f in vectors:
        for _ in range(draws):
            t, s = rng.uniform(0.0, spec.horizon, 2)
            lam = complex(rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0))
            mu = complex(rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0))
            op_t, op_s = FrozenOperator(spec, t), FrozenOperator(spec, s)
            one = frozen_resolvent(op_t, lam, frozen_resolvent(op_s, mu, f))
            two = frozen_resolvent(op_s, mu, frozen_resolvent(op_t, lam, f))
            diff = GridFunction(grid, "frequency", one.values - two.values)
            worst = max(worst, norm(diff) / max(norm(f), 1e-300))
    return worst


@dataclass(frozen=True)
class CDSystemReport:
    """Constant domain (structural), stability, strong Lipschitz continuity."""

    constant_domain: bool
    stability: StabilityCertificate
    strong_lipschitz: float           # max over pairs and vectors, X level
    strong_lipschitz_bound: float     # per-vector coefficient bound, maxed
    pass_x: bool
    pass_xminus1: bool
    strong_lipschitz_xminus1: float
    witness: dict


def certify_cd_system(spec: SymbolSpec, grid: Grid, vectors,
                      plan: SamplePlan = SamplePlan(),
                      slack: float = 0.05) -> CDSystemReport:
    """Verdict: constant domain (structural in the multiplier model) and
    Kato stability and strong Lipschitz continuity of t -> A(t) on the
    declared test vectors, at the X level and in the X_{-1} gauge."""
    if not vectors:
        raise ConfigurationError("need at least one test vector")
    stability = check_kato_stability(spec, grid, plan)

    pairs, a = _pair_table(spec, grid, plan.resolvent_pair_grid,
                           plan.pair_deltas)
    axes = grid.xi_axes()

    lips = spec.coefficient_lipschitz()
    monos = spec.monomials(axes)
    unbounded = any(not np.isfinite(b) for b in lips.values())
    rate = np.zeros(grid.shape)
    for alpha, bound in lips.items():
        if np.isfinite(bound):
            rate = rate + bound * np.abs(np.broadcast_to(monos[alpha], grid.shape))
    rate_flat = rate.reshape(-1)
    a0 = np.abs(np.broadcast_to(spec.on_axes(0.0, axes), grid.shape)).reshape(-1)
    gauge_defined = bool(np.all(a0 > 0.0))

    w = grid.cell_volume
    worst_x, worst_m1, bound_x = 0.0, 0.0, 0.0
    witness = {}
    for f in vectors:
        fhat = np.abs(f.to_frequency().values.reshape(-1))
        if unbounded:
            vec_bound = float("inf")
        else:
            vec_bound = float(np.sqrt(np.sum((rate_flat * fhat) ** 2) * w))
        bound_x = max(bound_x, vec_bound)
        for s, t, i, k in pairs:
            da = np.abs(a[k] - a[i]) / (t - s)
            qx = float(np.sqrt(np.sum((da * fhat) ** 2) * w))
            if gauge_defined:
                qm1 = float(np.sqrt(np.sum((da / a0 * fhat) ** 2) * w))
            else:
                qm1 = float("inf")     # X_{-1} gauge undefined: a(0,.) vanishes
            if qx > worst_x:
                worst_x = qx
                witness = {"t": t, "s": s, "quotient": qx}
            worst_m1 = max(worst_m1, qm1)

    pass_x = bool(stability.verdict and worst_x <= plan.cap
                  and worst_x <= bound_x * (1.0 + slack))
    pass_m1 = bool(stability.verdict and worst_m1 <= plan.cap)
    return CDSystemReport(
        constant_domain=True, stability=stability,
        strong_lipschitz=worst_x, strong_lipschitz_bound=bound_x,
        pass_x=pass_x, pass_xminus1=pass_m1,
        strong_lipschitz_xminus1=worst_m1, witness=witness)
