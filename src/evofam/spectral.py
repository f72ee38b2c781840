"""Grid functions on a periodic box and their transforms and norms.

Conventions fixed here and relied on everywhere else:

* The box is [0, L)^d sampled at N points per axis, spacing h = L/N.
* Frequencies are xi_k = 2 pi k / L for k in [-N/2, N/2), stored in FFT
  order (numpy fftfreq layout).
* A `GridFunction` holds its spectrum: the unitary ("ortho") DFT of its
  samples, in FFT order.  Samples enter once, through `transform`, and
  leave through `inverse_transform`; these are the package's only DFTs.
  Plancherel reads sum |f(x_j)|^2 h^d = sum |fhat_k|^2 h^d with the same
  weight on both sides; every norm below uses that weight.
* A grid's tables (frequency axes, |xi|^2, mode maxima, frequency rows,
  the axes on a set of bins) and the per-grid tables that symbols and
  perturbation families build on them go through `memo`: each is built
  once and then shared, read-only, by every caller.  Copy a table before
  writing to it.
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

from .errors import ConfigurationError, NumericError

BLOCK_ELEMENTS = 1 << 14    # values per block of a blocked sweep: ~256 KB complex


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of `rows` rows of `width` values each, about
    BLOCK_ELEMENTS values (and at least one row) per slice; a row of no
    values counts as one value."""
    size = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(lo, min(lo + size, rows)) for lo in range(0, rows, size)]


def memo(owner, name, build, anchor=None):
    """`owner`'s table `name` (any hashable) for `anchor`, built by `build()`
    on first use.

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

    def xi_axes_at(self, bins: np.ndarray) -> tuple[np.ndarray, ...]:
        """The frequency axes on the flat (C-order) bins `bins`, one 1-D array
        per axis.  Built once per set of bins, keyed by its contents, and
        shared read-only, so the tables keyed by axes identity serve every
        caller on the same bins."""
        return memo(self, ("xi_axes_at", bins.tobytes()), lambda: tuple(
            np.ascontiguousarray(column) for column in self.xi_rows()[bins].T))

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
    """A function on a Grid, held as its spectrum: the unitary DFT
    coefficients of its samples, in FFT order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}")


def transform(values: np.ndarray) -> np.ndarray:
    """The spectrum of grid samples: their unitary DFT, in FFT order."""
    return np.fft.fftn(values, norm="ortho")


def inverse_transform(values: np.ndarray) -> np.ndarray:
    """The grid samples of a spectrum: the inverse of `transform`."""
    return np.fft.ifftn(values, norm="ortho")


@dataclass(frozen=True)
class NormSpec:
    """The extrapolation gauge of X_{-1}: || f / a(t0, .) ||_L2.

    X_{-1} is the extrapolation space of A(t0) with a(t0, .) the reference
    symbol at `reference_time`; its norm is the L2 norm of the spectrum
    times the weight 1/|a(t0, .)|, which requires |a(t0, .)| > 0 on the
    whole grid, and large enough that the weight is a finite double.
    """

    reference: object            # SymbolSpec
    reference_time: float

    def weight(self, grid: Grid) -> np.ndarray:
        """The frequency weight 1/|a(t0, .)| on `grid`, built once per grid."""
        def build():
            a0 = np.broadcast_to(self.reference.on_axes(self.reference_time,
                                                        grid.xi_axes()), grid.shape)
            with np.errstate(divide="ignore", over="ignore"):
                weight = 1.0 / np.abs(a0)
            if not np.all(np.isfinite(weight)):
                raise NumericError("reference symbol vanishes on the grid; "
                                   "extrapolated norm undefined")
            return weight
        return memo(self, "weight", build, grid)


def plancherel_norm(values: np.ndarray, cell_volume: float) -> float:
    """sqrt(sum |v|^2 h^d): the L2 norm of grid samples or of their
    spectrum alike, since the unitary DFT keeps the cell weight."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * cell_volume))


def norm(f: GridFunction, gauge: NormSpec = None) -> float:
    """The L2 norm of `f`, or its X_{-1} norm in `gauge`: the spectrum, times
    the gauge's weight if one is given, reduced by `plancherel_norm`."""
    if not np.all(np.isfinite(f.values)):
        raise NumericError("non-finite values in grid function")
    vals = f.values if gauge is None else gauge.weight(f.grid) * np.abs(f.values)
    return plancherel_norm(vals, f.grid.cell_volume)


def spectral_tail_fraction(f: GridFunction) -> float:
    """Fraction of L2 mass in bins with any |k_j| >= N/4 (half the band).

    Test functions should keep this tiny (the CLI warns above 1e-8);
    otherwise box truncation pollutes the spectral model.
    """
    mass = np.abs(f.values) ** 2
    total = np.sum(mass)
    if total == 0.0:
        return 0.0
    return float(np.sum(mass[f.grid.max_mode() >= 0.5 * (f.grid.n // 2)]) / total)


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
    return GridFunction(grid, values)


def random_band_limited(grid: Grid, rng: np.random.Generator, band: int = 4) -> GridFunction:
    """Random unit-norm spectrum supported on modes with all |k_j| <= band."""
    if band < 1 or band > grid.n // 2 - 1:
        raise ConfigurationError(f"band {band} outside grid range")
    values = np.zeros(grid.shape, dtype=complex)
    mask = grid.max_mode() <= band
    count = int(np.sum(mask))
    values[mask] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return GridFunction(grid, values / norm(GridFunction(grid, values)))


def box_profile(x, lo: float, hi: float) -> np.ndarray:
    """The box profile at points x: 1 on (lo, hi), 0 elsewhere."""
    return ((x > lo) & (x < hi)).astype(float)


def gaussian_profile(x, center: float, width: float) -> np.ndarray:
    """The Gaussian profile exp(-z^2 / 2), z = |x - c| / w, at points x.  z is
    capped at 40, where exp(-800) is 0 already, by dividing by w or by |x - c|/40,
    whichever is larger, so that no width overflows."""
    d = np.abs(x - center)
    z = d / np.maximum(width, d / 40.0)
    return np.exp(-0.5 * z * z)


def indicator(grid: Grid, lo: float = 0.0, hi: float = 1.0) -> GridFunction:
    """Indicator of the box (lo, hi)^d sampled at grid points (a rough vector)."""
    samples = grid.separable(box_profile(grid.points_axis(), lo, hi))
    return GridFunction(grid, transform(samples))


def gaussian_bump(grid: Grid, center: float = None, width: float = None) -> GridFunction:
    """Smooth bump exp(-|x - c|^2 / (2 w^2)), well localized inside the box;
    c = box/2 and w = box/16 unless given."""
    c = grid.box / 2.0 if center is None else center
    w = grid.box / 16.0 if width is None else width
    samples = grid.separable(gaussian_profile(grid.points_axis(), c, w))
    return GridFunction(grid, transform(samples))


# -- serialization -----------------------------------------------------------

def save_function(f: GridFunction, stem) -> tuple[Path, Path]:
    """Write the spectrum to `<stem>.f64` (little-endian f64 interleaved
    re/im, C order) and sidecar `<stem>.json` with {dim, n, box,
    representation}; the representation is always "frequency"."""
    stem = Path(stem)
    data_path = stem.with_suffix(".f64")
    meta_path = stem.with_suffix(".json")
    flat = np.empty(f.values.size * 2)
    flat[0::2] = f.values.real.reshape(-1)
    flat[1::2] = f.values.imag.reshape(-1)
    flat.astype("<f8").tofile(data_path)
    meta = {"dim": f.grid.dim, "n": f.grid.n, "box": f.grid.box,
            "representation": "frequency"}
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return data_path, meta_path


def load_function(stem) -> GridFunction:
    """The grid function `save_function` wrote; a file whose sidecar says
    "physical" holds samples, which are transformed once."""
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
    grid = Grid(meta["dim"], meta["n"], meta["box"])
    flat = np.fromfile(stem.with_suffix(".f64"), dtype="<f8")
    if flat.size != 2 * grid.n**grid.dim:
        raise ConfigurationError("binary payload size does not match sidecar")
    values = (flat[0::2] + 1j * flat[1::2]).reshape(grid.shape)
    if meta["representation"] == "physical":
        values = transform(values)
    elif meta["representation"] != "frequency":
        raise ConfigurationError(f"unknown representation {meta['representation']!r}")
    return GridFunction(grid, values)
