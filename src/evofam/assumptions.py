"""Numerical measurement of the sectoriality, stability, equivalence and
Lipschitz hypotheses for a time-dependent symbol family.

Every checker returns measurements only: its constant, with a witness, as
a maximum over a seeded sample plan; M, kappa, L, C' and C also on the
doubled plan (refinement stability, in lieu of proof).  `cli.run_check`
judges each against the cap (a "violation at cap", never an analytic
disproof) or a named tolerance.  The sector bound takes its sup over
lambda in closed form per (t, xi) cell, so only t and xi are sampled.  So
do C', C and cd (`CDSystemReport`): the sup of a difference quotient over
pairs s < t is the sup of the time derivative, and per (t, xi) cell the
moduli |lambda| |d/dt a| / |lambda + a|^2 of d/dt lambda R(lambda, a(t))
and tau |d/dt a| e^{-tau Re a} of d/dt e^{-tau a(t)} have closed-form sups
over the whole sector and over tau in (0, T] (`check_resolvent_lipschitz`,
`check_semigroup_lipschitz`).  Only the sup over t is sampled, on the
times of `_rate_rows`; between samples the rate can exceed them, as every
sampled sup here can.

Every sampled sup goes through `_steepest`: a non-finite quotient reads
as 2 cap (a violation at cap) and the first maximum in sample-then-bin
order is the witness.  The A3 quotient |1 - a(t)/a(s)|/(t - s) divides by
|a(s)|, so it is no time derivative: it is sampled on every pair of a
uniform base grid of [0, T] plus centred near-coincident pairs.

Three rules skip repeated work without moving a sup or its witness:
* Columns: bins whose monomials (i xi)^alpha are all equal (after + 0.0, so
  -0 and +0 agree; xi and -xi under even terms) have equal columns of
  a(t, .) at every t, so `_symbol_matrix` holds one column per class, at
  its first bin.
* Rows: times whose coefficients c_alpha(t) are all equal (`_time_classes`)
  have equal rows a(t, .), so the sector, theta*, kappa, Kato and pair
  tables hold one row per class, at its first time; the C', C and cd
  tables key the classes on the rates c_alpha'(t) too, since equal
  coefficients need not have equal rates.
* Pairs: a pair whose times share a class has a(s, .) = a(t, .), so each
  of its A3 quotients is 0 or non-finite (2 cap) whatever t - s is;
  `_pair_table` lists the first such pair per class and every pair whose
  coefficients differ.
A dropped column, row or pair repeats the quotients of one listed before
it, so the first maximum in sample-row-column order, and with it the
witness, lies on what is swept.  The reported counts (`samples`,
`partitions_tested`, `pair_count`) still count every cell, partition and pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .spectral import Grid, NormSpec, memo, row_blocks
from .symbols import SymbolSpec

PAIR_DELTAS = (1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)   # widths of the centred pairs


@dataclass(frozen=True)
class SamplePlan:
    """Densities and seeds for every sampling sweep; `refined` doubles the
    time samples and the A3 pair grid, for the refinement-stable constants."""

    seed: int = 1
    time_samples: int = 128
    moduli_per_ray: int = 32
    pair_grid: int = 48
    resolvent_pair_grid: int = 16
    resolvent_moduli: int = 12
    tau_samples: int = 12
    kato_lambdas: int = 12
    kato_partitions: int = 12
    kato_kmax: int = 8
    cap: float = 1e8

    def refined(self) -> "SamplePlan":
        return replace(
            self,
            time_samples=self.time_samples * 2,
            pair_grid=self.pair_grid * 2,
        )


def _classes(table: np.ndarray):
    """The first row of each class of equal rows of a numeric table, in row
    order, and the class of every row.  Rows are keyed by their bytes after
    + 0.0, so -0 and +0 agree: equal keys iff equal values."""
    table = np.ascontiguousarray(table + 0.0)
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _bin_classes(spec: SymbolSpec, grid: Grid):
    """The first bin of each class of bins whose monomials (i xi)^alpha are
    all equal, in bin order, and the class of every bin (C order)."""
    def build():
        monos = spec.monomials(grid.xi_axes()).values()
        return _classes(np.stack(
            [np.broadcast_to(m, grid.shape).reshape(-1) for m in monos], axis=1))
    return memo(spec, "bin_classes", build, grid)


def _time_classes(spec: SymbolSpec, ts: np.ndarray, rates: bool = False):
    """The first time of each class of times whose coefficients c_alpha(t),
    and with `rates` their rates c_alpha'(t) too, are all equal, in time
    order, and the class of every time."""
    functions = [f for c in spec.coefficients.values()
                 for f in ((c, c.derivative) if rates else (c,))]
    return _classes(np.stack([f(ts) for f in functions], axis=1))


def _symbol_matrix(spec: SymbolSpec, grid: Grid, ts: np.ndarray) -> np.ndarray:
    """a(t_i, .) on the first bin of each `_bin_classes` class, shape
    (times, classes), classes in the order of their first bins; on the
    grid's own axes when every bin is its own class.

    Bins with equal monomials have equal a(t, .) at every t (the terms
    differ at most in the sign of a zero, which the sum from +0 drops), and
    a first maximum over bins falls on the first bin of its class, so a
    sweep over the classes finds the same sup at the same witness;
    `_bin_xi` maps a column back to that bin."""
    return spec.time_matrix(ts, _class_axes(spec, grid)).reshape(len(ts), -1)


def _class_axes(spec: SymbolSpec, grid: Grid):
    """Frequency axes of the first bin of each `_bin_classes` class, or the
    grid's own axes when every bin is its own class."""
    first = _bin_classes(spec, grid)[0]
    return grid.xi_axes() if len(first) == len(grid.xi_rows()) else memo(
        spec, "class_axes", lambda: tuple(np.ascontiguousarray(grid.xi_rows()[first].T)),
        grid)


def _time_rows(spec: SymbolSpec, grid: Grid, samples: int):
    """The first time of each `_time_classes` class of `samples` uniform
    times on [0, T], the class of every time, and `_symbol_matrix` on the
    first times (equal coefficients give equal rows)."""
    ts = np.linspace(0.0, spec.horizon, samples)
    first, classes = _time_classes(spec, ts)
    return ts[first], classes, _symbol_matrix(spec, grid, ts[first])


def _bin_xi(spec: SymbolSpec, grid: Grid, column: int) -> list:
    """Frequency vector of the first bin of `_symbol_matrix`'s `column`."""
    return grid.xi_rows()[_bin_classes(spec, grid)[0][column]].tolist()


def _refined(measure, plan: SamplePlan):
    """Base results of `measure` (constant first), the constant on the
    refined plan, and the relative delta between the two constants."""
    base = measure(plan)
    fine = measure(plan.refined())[0]
    return base, fine, abs(fine - base[0]) / max(base[0], 1e-300)


def _steepest(quotient, samples: int, rows: int, width: int, cap: float):
    """Largest nonnegative quotient and its (sample, row, column).

    `quotient(m, lo, hi)` returns sample m's quotients on rows lo:hi as a
    (hi - lo, columns) array; a row costs about `width` elements, so the
    `row_blocks` of rows keep temporaries near BLOCK_ELEMENTS.  A non-finite
    quotient reads as 2 cap, so a cap comparison fails it; the first maximum
    in sample-row-column order wins ((0, 0, 0) when every quotient is 0).
    """
    best, at = 0.0, (0, 0, 0)
    blocks = row_blocks(rows, width)
    for m in range(samples):
        for part in blocks:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                q = quotient(m, part.start, part.stop)
            k = np.argmax(q)
            # argmax picks the first NaN and +inf is the maximum, so a finite
            # pick means every quotient is finite
            if not np.isfinite(q.flat[k]):
                q = np.where(np.isfinite(q), q, 2.0 * cap)
                k = np.argmax(q)
            i, j = np.unravel_index(k, q.shape)
            if q[i, j] > best:
                best, at = float(q[i, j]), (m, part.start + int(i), int(j))
    return best, at


@dataclass(frozen=True)
class SectorParams:
    """Sector bound: max over the sampled (t, xi) cells of 1/|a| and of the
    exact sup over the sector of |lambda|/|lambda + a|; `samples` counts
    the cells."""

    theta: float
    m: float
    witness: dict
    samples: int
    refined_m: float = float("nan")
    refinement_delta: float = float("nan")


def _sector_sup(a: np.ndarray, theta: float) -> np.ndarray:
    """Per bin, sup of |lambda|/|lambda + a| over 0 < |lambda|, |arg lambda| <= theta.

    With psi = |arg(-a)| - theta, the angle from -a to the nearer boundary
    ray, the sup is +inf if psi <= 0 (the pole -a lies in the sector),
    1/sin psi if 0 < psi < pi/2, and 1 (as |lambda| -> inf) otherwise; it
    is 1 at a = 0.
    """
    psi = np.abs(np.angle(-a)) - theta
    sup = np.where(psi > 0.0, 1.0 / np.sin(np.minimum(psi, np.pi / 2)), np.inf)
    return np.where(a == 0, 1.0, sup)


def _sector_argmax(a: complex, theta: float):
    """The lambda where `_sector_sup` is attained: |a|/cos psi on the boundary
    ray nearer -a, or the pole -a when it lies in the sector; None when the
    sup is only approached as |lambda| -> inf."""
    phi = float(np.angle(-a))
    psi = abs(phi) - theta
    if psi >= np.pi / 2:
        return None
    lam = -a if psi <= 0.0 else abs(a) / np.cos(psi) * np.exp(1j * np.sign(phi) * theta)
    return [float(lam.real), float(lam.imag)]


def _sector_measure(spec: SymbolSpec, grid: Grid, theta: float, plan: SamplePlan):
    """Sector constant M on `plan` (no refinement), its witness and the
    number of (t, xi) cells."""
    if not np.pi / 2 < theta < np.pi:
        raise DomainError(f"theta must lie in (pi/2, pi), got {theta}")
    ts, _, a = _time_rows(spec, grid, plan.time_samples)
    # sample 0 is 1/|a|, sample 1 the sup over the sector of |lambda|/|lambda + a|
    parts = (lambda b: 1.0 / np.abs(b), lambda b: _sector_sup(b, theta))
    quotient = lambda m, lo, hi: parts[m](a[lo:hi])
    value, (m, i, j) = _steepest(quotient, 2, len(ts), a.shape[1], plan.cap)
    worst = {"kind": "resolvent_ratio" if m else "inverse_bound", "value": value,
             "t": float(ts[i]), "lambda": _sector_argmax(a[i, j], theta) if m else None,
             "xi": _bin_xi(spec, grid, j)}
    return value, worst, plan.time_samples * len(grid.xi_rows())


def check_sector(spec: SymbolSpec, grid: Grid, theta: float,
                 plan: SamplePlan = SamplePlan()) -> SectorParams:
    """Assumption: resolvent bound M/|lambda| on the sector of angle theta.

    M is the max over the sampled (t, xi) cells of the exact sup over
    lambda in the sector (`_sector_sup`) and of |a|^{-1} (the
    inverse-operator part of the assumption); the refined plan doubles
    the time samples.
    """
    (m_base, witness, count), m_fine, delta = _refined(
        lambda p: _sector_measure(spec, grid, theta, p), plan)
    return SectorParams(theta=theta, m=m_base, witness=witness, samples=count,
                        refined_m=m_fine, refinement_delta=delta)


def largest_passing_theta(spec: SymbolSpec, grid: Grid,
                          plan: SamplePlan = SamplePlan()) -> float:
    """theta*, the largest sector angle that passes the `a1` rule (M <= cap)
    on the base plan, the plan that rule judges: min over the (t, xi) cells
    of |arg(-a)| - arcsin(1/cap), since `_sector_sup` does not grow with
    |arg(-a)| and so the first argmin cell bounds the rest.  Near pi the
    difference keeps few digits of psi, so theta* steps down one ulp at a time
    while that cell's sup exceeds cap.  nan if cap < 1, if some 1/|a| > cap
    (a = 0 included) or if theta* is not in (pi/2, pi)."""
    a = _time_rows(spec, grid, plan.time_samples)[2]
    with np.errstate(divide="ignore", over="ignore"):
        if plan.cap < 1.0 or np.max(1.0 / np.abs(a)) > plan.cap:
            return float("nan")
    args = np.abs(np.angle(-a)).ravel()
    cell = np.argmin(args)
    theta = float(args[cell] - np.arcsin(1.0 / plan.cap))
    # in (pi/2, pi) each step raises psi, lowering the sup towards 1 <= cap
    if not np.pi / 2 < theta < np.pi:
        return float("nan")
    while _sector_sup(a.flat[cell], theta) > plan.cap:
        theta = float(np.nextafter(theta, 0.0))
    return theta if theta > np.pi / 2 else float("nan")


@dataclass(frozen=True)
class StabilityCertificate:
    """Kato stability: resolvent products and semigroup products, measured
    once.  With M = 1 and omega = -(min Re a over the sampled matrix), each
    factor (lambda - omega)/|lambda + a| and e^{-tau (Re a + omega)} is at
    most 1, since Re(lambda + a) >= lambda - omega > 0, so every ratio is at
    most 1 + roundoff on any plan."""

    m: float
    omega: float
    kmax: int
    partitions_tested: int
    max_resolvent_ratio: float     # worst product / (M / (lambda - omega)^k)
    max_semigroup_ratio: float     # worst product / (M e^{omega sum tau})


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
                         m: float = 1.0,
                         omega: float | None = None) -> StabilityCertificate:
    """Measure the product bounds over ordered partitions up to k = kmax.

    Multipliers commute, so the product norm equals the grid maximum of
    the product of the per-factor moduli.  When `omega` is omitted it is
    taken as -(min over the sampled times and grid of Re a), the natural
    quasi-contractivity bound for this symbol class.

    Every factor of a partition is a row of the sampled symbol matrix, so
    each lambda takes log|lambda + a| once over the (classes, columns)
    table, and each order k gathers its distinct tuples of factor rows from
    that table, blocked by `row_blocks` (a repeated tuple repeats its
    ratio); the semigroup form gathers Re a for every partition.  The draws
    keep their order (an order's partitions, then one duration vector per
    partition), the factor sums run in factor order and each bound is the
    same expression, so every ratio is the double that a loop over
    (partition, lambda) computes, and the sup, which skips a NaN ratio as
    that loop's `max` did, is the same bit for bit.
    """
    T = spec.horizon
    rng = np.random.default_rng(plan.seed)
    _, classes, a = _time_rows(spec, grid, plan.time_samples)
    w = omega if omega is not None else -float(np.min(a.real))
    lams = w + np.geomspace(1e-1, 1e3, plan.kato_lambdas)
    anchors = np.linspace(0.0, T, 9)

    # per order k: the distinct factor rows, then the factor rows and the
    # durations of every partition, (partitions, k) each
    orders = []
    for k in range(1, plan.kato_kmax + 1):
        parts = np.array(_partitions(T, k, plan.kato_partitions, rng, anchors))
        taus = np.array([rng.uniform(0.0, T / k, k) for _ in parts])
        idx = classes[np.rint(parts / T * (plan.time_samples - 1)).astype(int)]
        orders.append((k, idx[_classes(idx)[0]], idx, taus))
    log_m = np.log(m)

    def worst(log_prod, bound, best):
        """`best` raised to the largest non-NaN exp(max_xi log_prod - bound)."""
        return float(np.fmax.reduce(np.exp(np.max(log_prod, axis=1) - bound),
                                    initial=best))

    worst_res, logs = 0.0, np.empty(a.shape)
    for lam in lams:
        for rows in row_blocks(*a.shape):
            np.log(np.abs(lam + a[rows], out=logs[rows]), out=logs[rows])
        log_gap = np.log(lam - w)
        for k, rows, _, _ in orders:
            for part in row_blocks(len(rows), k * a.shape[1]):
                worst_res = worst(-np.sum(logs[rows[part]], axis=1),
                                  log_m - k * log_gap, worst_res)
    # semigroup form with random nonnegative durations, on every partition
    worst_semi = 0.0
    for k, _, idx, taus in orders:
        for part in row_blocks(len(idx), k * a.shape[1]):
            worst_semi = worst(
                -np.sum(taus[part, :, None] * a.real[idx[part]], axis=1),
                log_m + w * np.sum(taus[part], axis=1), worst_semi)
    return StabilityCertificate(
        m=m, omega=w, kmax=plan.kato_kmax,
        partitions_tested=sum(len(idx) for _, _, idx, _ in orders),
        max_resolvent_ratio=worst_res, max_semigroup_ratio=worst_semi)


def _swept_pairs(s_class: np.ndarray, t_class: np.ndarray) -> np.ndarray:
    """Mask of the pairs a sweep visits, given the `_time_classes` class of
    each pair's times: every pair whose times lie in different classes, and
    the first zero-slope pair (both times in one class) per class."""
    swept, zero = s_class != t_class, np.flatnonzero(s_class == t_class)
    swept[zero[np.unique(s_class[zero], return_index=True)[1]]] = True
    return swept


def _pair_table(spec: SymbolSpec, grid: Grid, grid_count: int):
    """Pairs s < t as arrays (s, t, row_s, row_t) into the symbol matrix on
    the first time of each `_time_classes` class of their times (the Rows
    rule), that matrix, and the number of pairs the sup covers: every
    base-grid pair plus the centred pairs.

    Only the `_swept_pairs` are listed.  Equal coefficients make a(s, .)
    and a(t, .) the same doubles, so each A3 quotient of such a pair is 0
    or non-finite (read as 2 cap) whatever t - s is: its row is that of
    the first pair with the same coefficients, which is listed earlier,
    and a first maximum never falls on a dropped row."""
    T = spec.horizon
    base = np.linspace(0.0, T, grid_count)
    i, k = np.triu_indices(grid_count, 1)
    centers = np.append(base, 0.5 * T)
    half = np.asarray(PAIR_DELTAS)[:, None] / 2.0
    cs, ct = (centers - half).ravel(), (centers + half).ravel()
    keep = (cs >= 0.0) & (ct <= T) & (ct > cs)
    s = np.concatenate([base[i], cs[keep]])
    t = np.concatenate([base[k], ct[keep]])
    times, rows = np.unique(np.concatenate([s, t]), return_inverse=True)
    first, classes = _time_classes(spec, times)
    row_s, row_t = np.split(classes[rows], 2)
    swept = _swept_pairs(row_s, row_t)
    return ((s[swept], t[swept], row_s[swept], row_t[swept]),
            _symbol_matrix(spec, grid, times[first]), len(s))


@dataclass(frozen=True)
class LipschitzComponent:
    value: float
    witness: dict
    pair_count: int          # A3: pairs the sup covers; C' and C: (t, xi) cells
    refined_value: float = float("nan")
    refinement_delta: float = float("nan")


def _lipschitz(measure, plan: SamplePlan) -> LipschitzComponent:
    (value, witness, count), fine, delta = _refined(measure, plan)
    return LipschitzComponent(value=value, witness=witness, pair_count=count,
                              refined_value=fine, refinement_delta=delta)


def check_operator_lipschitz(spec: SymbolSpec, grid: Grid,
                             plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """L = max over pairs of max_xi |1 - a(t,.)/a(s,.)| / |t - s|.

    In the multiplier model this is exactly ||Id - A(t) A(s)^{-1}|| and
    coincides with the extrapolated version (the symbols commute).
    """

    def measure(p: SamplePlan):
        (s, t, i, k), a, count = _pair_table(spec, grid, p.pair_grid)
        # |1 - a(t)/a(s)| in difference form: exact 0 for autonomous rows
        quotient = lambda _, lo, hi: (np.abs(a[i[lo:hi]] - a[k[lo:hi]]) / np.abs(a[i[lo:hi]])
                                      / (t - s)[lo:hi, None])
        value, (_, q, j) = _steepest(quotient, 1, len(s), a.shape[1], p.cap)
        witness = {} if value == 0.0 else {
            "t": float(t[q]), "s": float(s[q]), "xi": _bin_xi(spec, grid, j), "value": value}
        return value, witness, count

    return _lipschitz(measure, plan)


def _rate_rows(spec: SymbolSpec, grid: Grid, samples: int):
    """The rate sweeps' times and table: the first time of each
    `_time_classes` class, keyed on the coefficients and their rates, of
    `samples` uniform times on [0, T] plus every jump time in (0, T], where
    a step term's rate is infinite; |d/dt a| on those times and the
    `_class_axes` columns (NaN where an infinite rate meets a zero
    monomial); and the number of times."""
    times = np.linspace(0.0, spec.horizon, samples)
    jumps = {t0 for c in spec.coefficients.values() for t0, jump in c.steps
             if jump != 0 and 0.0 < t0 <= spec.horizon} - set(times.tolist())
    times = np.sort(np.append(times, list(jumps)))   # np.union1d imports numpy.ma (1.3 MB)
    ts = times[_time_classes(spec, times, rates=True)[0]]
    with np.errstate(invalid="ignore"):     # an infinite rate times (i 0)^alpha is NaN
        rate = np.abs(spec.time_matrix(ts, _class_axes(spec, grid), derivative=True)
                      ).reshape(len(ts), -1)
    return ts, rate, len(times)


def _rate_sweep(spec: SymbolSpec, grid: Grid, p: SamplePlan, sup, argmax):
    """Largest |d/dt a| sup(a) over the (t, xi) cells of `_rate_rows`, its
    witness ({} when it is 0) with `argmax(a)` at the witness cell, and the
    number of cells.  A zero rate reads 0 whatever sup(a) is, even where the
    pole -a lies in the sector, as an autonomous row read 0 in a difference
    quotient."""
    ts, rate, count = _rate_rows(spec, grid, p.time_samples)
    a = _symbol_matrix(spec, grid, ts)
    quotient = lambda _, lo, hi: np.where(rate[lo:hi] == 0.0, 0.0,
                                          rate[lo:hi] * sup(a[lo:hi]))
    value, (_, i, j) = _steepest(quotient, 1, len(ts), a.shape[1], p.cap)
    witness = {} if value == 0.0 else {
        "t": float(ts[i]), "xi": _bin_xi(spec, grid, j), "value": value, **argmax(a[i, j])}
    return value, witness, count * len(grid.xi_rows())


def _resolvent_rate_sup(a: np.ndarray, theta: float) -> np.ndarray:
    """Per bin, sup of |lambda|/|lambda + a|^2 over 0 < |lambda|, |arg lambda|
    <= theta: 1/(4 |a| sin^2(psi/2)) with psi = |arg(-a)| - theta as in
    `_sector_sup`, at lambda* = |a| e^{+-i theta} on the boundary ray nearer
    -a (for each argument the sup over |lambda| sits at |lambda| = |a|, and
    it grows as the argument nears that of -a); +inf if psi <= 0 (the pole
    -a lies in the sector) or a = 0."""
    psi = np.abs(np.angle(-a)) - theta
    return np.where(psi > 0.0, 0.25 / (np.abs(a) * np.sin(0.5 * psi) ** 2), np.inf)


def check_resolvent_lipschitz(spec: SymbolSpec, grid: Grid, theta: float,
                              plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """C' = sup over t, xi and the whole sector of |lambda| |d/dt R(lambda, a(t))|
    = |lambda| |d/dt a| / |lambda + a|^2, the sup over pairs s < t of
    |lambda| |R(lambda, a(t)) - R(lambda, a(s))| / (t - s).

    The sup over lambda is `_resolvent_rate_sup`'s closed form, so C' =
    sup |d/dt a| / (4 |a| sin^2(psi/2)) over the (t, xi) cells of
    `_rate_sweep`, a lower bound on the sup over all t; the witness is
    (t, xi, lambda*).
    """

    def argmax(a: complex) -> dict:
        lam = abs(a) * np.exp(1j * np.sign(np.angle(-a)) * theta)
        return {"lambda": [float(lam.real), float(lam.imag)]}

    return _lipschitz(lambda p: _rate_sweep(
        spec, grid, p, lambda a: _resolvent_rate_sup(a, theta), argmax), plan)


def check_semigroup_lipschitz(spec: SymbolSpec, grid: Grid,
                              plan: SamplePlan = SamplePlan()) -> LipschitzComponent:
    """C = sup over t, xi and tau in (0, T] of |d/dt e^{-tau a(t)}|
    = tau |d/dt a| e^{-tau Re a}, the sup over pairs s < t of
    |e^{-tau a(t)} - e^{-tau a(s)}| / (t - s).

    tau e^{-tau r} peaks at tau* = 1/r, so its sup over (0, T] is
    g(r) = 1/(e r) if r >= 1/T and T e^{-T r} (at tau* = T) otherwise; C =
    sup |d/dt a| g(Re a) over the (t, xi) cells of `_rate_sweep`, a lower
    bound on the sup over all t; the witness is (t, xi, tau*).
    """
    T = spec.horizon

    def sup(a: np.ndarray) -> np.ndarray:
        r = a.real
        return np.where(r >= 1.0 / T, 1.0 / (np.e * r), T * np.exp(-T * r))

    argmax = lambda a: {"tau": float(1.0 / a.real) if a.real >= 1.0 / T else T}
    return _lipschitz(lambda p: _rate_sweep(spec, grid, p, sup, argmax), plan)


@dataclass(frozen=True)
class EquivalenceReport:
    """kappa with 1/kappa <= ||x||_{X_-1(A(t))} / ||x||_{X_-1} <= kappa."""

    kappa: float
    witness_upper: dict
    witness_lower: dict
    refined_kappa: float = float("nan")
    refinement_delta: float = float("nan")


def check_norm_equivalence(spec: SymbolSpec, grid: Grid,
                           plan: SamplePlan = SamplePlan()) -> EquivalenceReport:
    """kappa = max over t, xi of max(|a(t)/a(0)|, |a(0)/a(t)|), exact on the
    diagonal model (both gauges are diagonal with those weights)."""

    def measure(p: SamplePlan):
        ts, _, a = _time_rows(spec, grid, p.time_samples)
        upper = lambda _, lo, hi: np.abs(a[lo:hi] / a[0])
        # the lower ratio inverts the upper one read by the non-finite rule
        lower = lambda _, lo, hi: 1.0 / np.fmin(upper(_, lo, hi), 2.0 * p.cap)
        sides = []
        for ratio in (upper, lower):
            value, (_, i, j) = _steepest(ratio, 1, len(ts), a.shape[1], p.cap)
            sides.append({"t": float(ts[i]), "xi": _bin_xi(spec, grid, j),
                          "value": value})
        return max(sides[0]["value"], sides[1]["value"]), *sides

    (kappa, upper, lower), kappa_fine, delta = _refined(measure, plan)
    return EquivalenceReport(kappa=kappa, witness_upper=upper, witness_lower=lower,
                             refined_kappa=kappa_fine, refinement_delta=delta)


@dataclass(frozen=True)
class CDSystemReport:
    """Strong Lipschitz quotients of t -> A(t); the domain is constant by
    construction of the multiplier model.  By Minkowski, ||(a(t) - a(s)) f^||
    <= int_s^t ||d/dt a(r) f^|| dr with equality as s -> t, so the sup over
    pairs of the quotient is sup_t ||d/dt a(t) f^||, in X and in X_{-1} alike.
    `cli.run_check` passes the CD system on Kato and each quotient <= cap."""

    strong_lipschitz: float           # max over times and vectors, X level
    strong_lipschitz_xminus1: float
    witness: dict


def certify_cd_system(spec: SymbolSpec, grid: Grid, vectors,
                      plan: SamplePlan = SamplePlan()) -> CDSystemReport:
    """sup_t ||d/dt a(t) f^|| over the declared test vectors and the times of
    `_rate_rows` (2 cap at a jump), at the X level and in the X_{-1} gauge of
    `NormSpec` (inf where it is undefined); the witness is the steepest time.
    The caller measures Kato stability, the CD system's other half, once."""
    if not vectors:
        raise ConfigurationError("need at least one test vector")
    ts, rate, _ = _rate_rows(spec, grid, plan.time_samples)
    # each bin of the L2 sums reads its class's rate
    rate = rate[:, _bin_classes(spec, grid)[1]]
    w = grid.cell_volume
    fhats = np.array([np.abs(f.values.reshape(-1)) for f in vectors])

    def sup(weight):
        """Steepest L2 norm ||rate * weight * f^|| over (vector, time) and where it sits."""
        quotient = lambda v, lo, hi: np.sqrt(
            np.sum((rate[lo:hi] * weight * fhats[v]) ** 2, axis=1) * w)[:, None]
        return _steepest(quotient, len(vectors), len(ts), rate.shape[1], plan.cap)

    worst_x, (_, i, _) = sup(1.0)
    witness = {"t": float(ts[i]), "quotient": worst_x} if worst_x > 0.0 else {}
    try:
        weight = NormSpec(spec, 0.0).weight(grid).reshape(-1)
    except NumericError:
        worst_m1 = float("inf")
    else:
        worst_m1 = sup(weight)[0]
    return CDSystemReport(strong_lipschitz=worst_x, strong_lipschitz_xminus1=worst_m1,
                          witness=witness)
