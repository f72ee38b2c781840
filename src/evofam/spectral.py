"""Grid functions on a periodic box and their transforms and norms.

Conventions fixed here and relied on everywhere else:

* The box is [0, L)^d sampled at N points per axis, spacing h = L/N.
* Frequencies are xi_k = 2 pi k / L for k in [-N/2, N/2), stored in FFT
  order (numpy fftfreq layout).
* Transforms are the unitary ("ortho") DFT, so Plancherel reads
  sum |f(x_j)|^2 h^d = sum |fhat_k|^2 h^d with the same weight on both
  sides; every norm below uses that weight.
* A grid's tables (frequency axes, |xi|^2, mode maxima, frequency rows)
  and the per-grid tables that symbols and perturbation families build on
  them go through `memo`: each is built once and then shared, read-only,
  by every caller.  Copy a table before writing to it.
* Blocked sweeps (the certifiers' sampled sups, the Volterra and Duhamel
  marches) take their rows by `row_blocks`, at most BLOCK_ELEMENTS values
  per block, so no (samples x bins) table is ever built whole; a symbol
  table that is kept whole is built into its output a block at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError, StateError

PHYSICAL = "physical"
FREQUENCY = "frequency"
BLOCK_ELEMENTS = 1 << 14    # values per block of a blocked sweep: ~256 KB complex


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of `rows` rows of `width` values each, about
    BLOCK_ELEMENTS values (and at least one row) per slice."""
    size = max(1, BLOCK_ELEMENTS // width)
    return [slice(lo, min(lo + size, rows)) for lo in range(0, rows, size)]


def memo(owner, name: str, build, anchor=None):
    """`owner`'s table `name` for `anchor`, built by `build()` on first use.

    The table lives on `owner` and is handed out read-only from then on.
    `anchor` (a grid, a tuple of frequency axes, or None) is matched by
    identity and kept alive beside its table, so one anchor's table never
    serves another.  Axes with a writeable array may change in place, so
    for them `build()` runs on every call and nothing is kept.
    """
    if isinstance(anchor, tuple) and any(ax.flags.writeable for ax in anchor):
        return build()
    tables = vars(owner).setdefault("_tables", {})
    key = (name, id(anchor))
    if key not in tables:
        tables[key] = (anchor, _read_only(build()))
    return tables[key][1]


def _read_only(table):
    """Lock an array, or the arrays of a tuple or dict."""
    parts = table.values() if isinstance(table, dict) else table
    for part in parts if isinstance(table, (tuple, dict)) else (table,):
        part.flags.writeable = False
    return table


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: `dim` axes, `n` points per axis, edge `box`."""

    dim: int
    n: int
    box: float

    def __post_init__(self):
        if self.dim < 1 or self.n < 2 or self.box <= 0:
            raise ConfigurationError("need dim >= 1, n >= 2, box > 0")
        if self.n & (self.n - 1):
            raise ConfigurationError(f"points per axis must be a power of two, got {self.n}")

    @property
    def h(self) -> float:
        return self.box / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def points_axis(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def xi_axis(self) -> np.ndarray:
        """Frequencies 2 pi k / L in FFT order for one axis."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def _on_axis(self, j: int, values: np.ndarray) -> np.ndarray:
        """Per-point values along axis j, shaped for broadcasting to `shape`."""
        return values.reshape([self.n if k == j else 1 for k in range(self.dim)])

    def separable(self, axis_values: np.ndarray) -> np.ndarray:
        """prod_j v(x_j) on the grid for per-axis values v."""
        values = np.ones(self.shape)
        for j in range(self.dim):
            values = values * self._on_axis(j, axis_values)
        return values

    def xi_axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis frequency arrays shaped for broadcasting to `shape`."""
        def build():
            axis = self.xi_axis()
            return tuple(self._on_axis(j, axis) for j in range(self.dim))
        return memo(self, "xi_axes", build)

    def xi_rows(self) -> np.ndarray:
        """Frequency vector of every bin, shape (bins, dim), bins in C order."""
        return memo(self, "xi_rows", lambda: np.stack(
            [np.broadcast_to(ax, self.shape).reshape(-1) for ax in self.xi_axes()],
            axis=1))

    def max_mode(self) -> np.ndarray:
        """max_j |k_j| per bin, k_j the integer mode index on axis j."""
        return memo(self, "max_mode", lambda: np.max(np.meshgrid(
            *[np.abs(np.fft.fftfreq(self.n, d=1.0 / self.n))] * self.dim,
            indexing="ij"), axis=0))

    def xi_squared(self) -> np.ndarray:
        return memo(self, "xi_squared", lambda: sum(
            (ax**2 for ax in self.xi_axes()), np.zeros(self.shape)))

    def mode_index(self, k: int) -> int:
        """FFT-order index of integer mode k on one axis."""
        if not -self.n // 2 <= k < self.n // 2:
            raise ConfigurationError(f"mode {k} outside grid band [{-self.n//2}, {self.n//2})")
        return k % self.n


@dataclass(frozen=True)
class GridFunction:
    """Complex values on a Grid, in physical or frequency representation."""

    grid: Grid
    representation: str
    values: np.ndarray

    def __post_init__(self):
        if self.representation not in (PHYSICAL, FREQUENCY):
            raise ConfigurationError(f"unknown representation {self.representation!r}")
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}")

    def to_frequency(self) -> "GridFunction":
        return transform(self, FREQUENCY) if self.representation == PHYSICAL else self

    def to_physical(self) -> "GridFunction":
        return transform(self, PHYSICAL) if self.representation == FREQUENCY else self


def transform(f: GridFunction, direction: str) -> GridFunction:
    """Unitary DFT between representations; rejects a no-op direction."""
    if direction == f.representation:
        raise StateError(f"function already in {direction} representation")
    if direction == FREQUENCY:
        values = np.fft.fftn(f.values, norm="ortho")
    elif direction == PHYSICAL:
        values = np.fft.ifftn(f.values, norm="ortho")
    else:
        raise ConfigurationError(f"unknown direction {direction!r}")
    return GridFunction(f.grid, direction, values)


def apply_multiplier(m, f: GridFunction) -> GridFunction:
    """Apply a Fourier multiplier; `m` maps per-axis frequency arrays to values.

    `m` receives the tuple of broadcastable frequency axes and must return
    an array broadcastable to the grid shape (or a scalar).  The result is
    in frequency representation.
    """
    fhat = f.to_frequency()
    values = np.broadcast_to(np.asarray(m(f.grid.xi_axes()), dtype=complex),
                             f.grid.shape)
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        xi = [float(ax.reshape(-1)[i]) for ax, i in zip(f.grid.xi_axes(), idx)]
        raise NumericError(f"multiplier non-finite at bin {idx} (xi={xi})",
                           witness={"bin": idx, "xi": xi})
    return GridFunction(f.grid, FREQUENCY, fhat.values * values)


@dataclass(frozen=True)
class NormSpec:
    """The extrapolation gauge of X_{-1}: || f / a(t0, .) ||_L2.

    X_{-1} is the extrapolation space of A(t0) with a(t0, .) the reference
    symbol at `reference_time`; its norm is the L2 norm of the spectrum
    times the weight 1/|a(t0, .)|, which requires |a(t0, .)| > 0 on the
    whole grid.
    """

    reference: object            # SymbolSpec
    reference_time: float

    def weight(self, grid: Grid) -> np.ndarray:
        """The frequency weight 1/|a(t0, .)| on `grid`, built once per grid."""
        def build():
            a0 = np.broadcast_to(self.reference.on_axes(self.reference_time,
                                                        grid.xi_axes()), grid.shape)
            if np.any(np.abs(a0) == 0.0):
                raise NumericError("reference symbol vanishes on the grid; "
                                   "extrapolated norm undefined")
            return 1.0 / np.abs(a0)
        return memo(self, "weight", build, grid)


def plancherel_norm(values: np.ndarray, cell_volume: float) -> float:
    """sqrt(sum |v|^2 h^d): the L2 norm of grid values in either
    representation, since the unitary DFT keeps the cell weight."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * cell_volume))


def norm(f: GridFunction, gauge: NormSpec = None) -> float:
    """The L2 norm of `f`, or its X_{-1} norm in `gauge`: the spectrum, times
    the gauge's weight if one is given, reduced by `plancherel_norm` on the
    frequency side."""
    if not np.all(np.isfinite(f.values)):
        raise NumericError("non-finite values in grid function")
    vals = f.to_frequency().values
    if gauge is not None:
        vals = gauge.weight(f.grid) * np.abs(vals)
    return plancherel_norm(vals, f.grid.cell_volume)


def spectral_tail_fraction(f: GridFunction) -> float:
    """Fraction of L2 mass in bins with any |k_j| >= N/4 (half the band).

    Test functions should keep this tiny (the CLI warns above 1e-8);
    otherwise box truncation pollutes the spectral model.
    """
    fhat = f.to_frequency().values
    mask = f.grid.max_mode() >= 0.5 * (f.grid.n // 2)
    total = np.sum(np.abs(fhat) ** 2)
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(fhat[mask]) ** 2) / total)


# -- standard test vectors ---------------------------------------------------

def mode(grid: Grid, k) -> GridFunction:
    """Single Fourier mode e^{i xi_k . x} with unit L2 norm.

    `k` is an integer (d = 1) or tuple of per-axis integers.
    """
    ks = (k,) if np.isscalar(k) else tuple(k)
    if len(ks) != grid.dim:
        raise ConfigurationError(f"mode index {ks} has wrong dimension")
    values = np.zeros(grid.shape, dtype=complex)
    idx = tuple(grid.mode_index(kj) for kj in ks)
    values[idx] = 1.0 / np.sqrt(grid.cell_volume)
    return GridFunction(grid, FREQUENCY, values)


def random_band_limited(grid: Grid, rng: np.random.Generator, band: int = 4) -> GridFunction:
    """Random unit-norm spectrum supported on modes with all |k_j| <= band."""
    if band < 1 or band > grid.n // 2 - 1:
        raise ConfigurationError(f"band {band} outside grid range")
    values = np.zeros(grid.shape, dtype=complex)
    mask = grid.max_mode() <= band
    count = int(np.sum(mask))
    values[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return GridFunction(grid, FREQUENCY, values / norm(GridFunction(grid, FREQUENCY, values)))


def indicator(grid: Grid, lo: float = 0.0, hi: float = 1.0) -> GridFunction:
    """Indicator of the box (lo, hi)^d sampled at grid points (a rough vector)."""
    x = grid.points_axis()
    return GridFunction(grid, PHYSICAL, grid.separable((x > lo) & (x < hi)).astype(complex))


def gaussian_bump(grid: Grid, center: float = None, width: float = None) -> GridFunction:
    """Smooth bump exp(-|x - c|^2 / (2 w^2)), well localized inside the box."""
    if center is None:
        center = grid.box / 2.0
    if width is None:
        width = grid.box / 16.0
    x = grid.points_axis()
    axis_vals = np.exp(-((x - center) ** 2) / (2.0 * width**2))
    return GridFunction(grid, PHYSICAL, grid.separable(axis_vals).astype(complex))


# -- serialization -----------------------------------------------------------

def save_function(f: GridFunction, stem) -> tuple[Path, Path]:
    """Write `<stem>.f64` (little-endian f64 interleaved re/im, C order)
    and sidecar `<stem>.json` with {dim, n, box, representation}."""
    stem = Path(stem)
    data_path = stem.with_suffix(".f64")
    meta_path = stem.with_suffix(".json")
    flat = np.empty(f.values.size * 2)
    flat[0::2] = f.values.real.reshape(-1)
    flat[1::2] = f.values.imag.reshape(-1)
    flat.astype("<f8").tofile(data_path)
    meta = {"dim": f.grid.dim, "n": f.grid.n, "box": f.grid.box,
            "representation": f.representation}
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return data_path, meta_path


def load_function(stem) -> GridFunction:
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
    grid = Grid(meta["dim"], meta["n"], meta["box"])
    flat = np.fromfile(stem.with_suffix(".f64"), dtype="<f8")
    if flat.size != 2 * grid.n**grid.dim:
        raise ConfigurationError("binary payload size does not match sidecar")
    values = (flat[0::2] + 1j * flat[1::2]).reshape(grid.shape)
    return GridFunction(grid, meta["representation"], values)
