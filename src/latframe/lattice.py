"""Label geometry for level-indexed magnetic lattices.

A label is a pair (r, gamma) of a non-negative level index and a point
gamma of the rectangular lattice alpha*Z x beta*Z.  The label metric is

    dist((r, g), (r', g')) = |r - r'| + alpha_star * |g - g'|_1,

with alpha_star = min(alpha, beta).  Everything downstream (overlap decay
certificates, interaction localization sums, light-cone checks) measures
distances with this metric, so the window enumeration and the m_eps
localization sum live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "LatticeError",
    "LatticeParams",
    "Site",
    "Window",
    "build_window",
    "window_from_triples",
    "build_chain",
    "m_epsilon",
]


class LatticeError(ValueError):
    """Invalid lattice parameters or site data."""


@dataclass(frozen=True)
class LatticeParams:
    """Rectangular lattice spacings and window extent.

    Parameters
    ----------
    alpha, beta : float
        Positive lattice spacings along the two axes.
    radius : float
        Spatial window cutoff: a site (r, gamma) is kept when
        alpha_star * |gamma|_1 <= radius.  The window is therefore a
        metric ball in the spatial part and symmetric under gamma -> -gamma.
    level_max : int
        Highest level index included (0 keeps only the lowest level).
    """

    alpha: float
    beta: float
    radius: float
    level_max: int = 0

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise LatticeError(f"spacings must be positive, got alpha={self.alpha}, beta={self.beta}")
        if self.radius <= 0:
            raise LatticeError(f"window radius must be positive, got {self.radius}")
        if self.level_max < 0 or int(self.level_max) != self.level_max:
            raise LatticeError(f"level_max must be a non-negative integer, got {self.level_max}")

    @property
    def alpha_star(self) -> float:
        return min(self.alpha, self.beta)

    @property
    def dim(self) -> int:
        """Metric dimension nu of the volume weight (1 + diam Z)**nu in the
        propagation functional: the two spatial axes, plus the level axis when
        the lattice has levels above 0 (level_max > 0), whatever a window holds."""
        return 2 if self.level_max == 0 else 3


@dataclass(frozen=True)
class Site:
    """One window label: level index r and lattice indices (i, j).

    The spatial point is gamma = (i * alpha, j * beta); sites serialize as
    the integer triple [r, i, j].
    """

    r: int
    i: int
    j: int

    def gamma(self, params: LatticeParams) -> tuple[float, float]:
        return (self.i * params.alpha, self.j * params.beta)

    def triple(self) -> tuple[int, int, int]:
        return (self.r, self.i, self.j)


@dataclass(frozen=True)
class Window:
    """Finite label window with cached coordinate arrays.

    Sites are ordered lexicographically by (r, i, j); the order is the
    contract for every matrix indexed by window sites.
    """

    params: LatticeParams
    sites: tuple[Site, ...]
    levels: np.ndarray = field(repr=False)
    gxy: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.sites)

    def index(self, site: Site) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise LatticeError(f"site {site.triple()} not in window") from None

    def distance_matrix(self, sites=None) -> np.ndarray:
        """Pairwise label distances of the listed site indices (every site when
        None), shape (k, k), built from those sites' own coordinates with
        temporaries of the block's size."""
        levels, gxy = (self.levels, self.gxy) if sites is None else (
            self.levels[sites], self.gxy[sites])
        d = _gaps(gxy[:, 0])
        d += _gaps(gxy[:, 1])
        d *= self.params.alpha_star
        d += _gaps(levels)
        return d

    def center_index(self) -> int:
        """Index of the site at the origin of the lowest level."""
        return self.index(Site(0, 0, 0))

    def content_hash(self) -> str:
        # CPython's builtin SHA-256, as `random` takes its SHA-512: hashlib would
        # map OpenSSL's libcrypto (about 3.5 MB resident) for this one digest
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from _sha256 import sha256

        h = sha256()
        h.update(f"{self.params.alpha!r},{self.params.beta!r},{self.params.level_max}".encode())
        for s in self.sites:
            h.update(f"{s.r},{s.i},{s.j};".encode())
        return h.hexdigest()[:16]

    def is_subwindow_of(self, other: "Window") -> bool:
        if self.params.alpha != other.params.alpha or self.params.beta != other.params.beta:
            return False
        return set(self.sites) <= set(other.sites)


def _gaps(a: np.ndarray) -> np.ndarray:
    """|a_i - a_j| for every pair, in the one array the difference allocates."""
    t = a[:, None] - a[None, :]
    return np.abs(t, out=t)


def _inside(params: LatticeParams, i: int, j: int) -> bool:
    """Whether alpha_star * (|i*alpha| + |j*beta|) is within the window radius."""
    l1 = abs(i) * params.alpha + abs(j) * params.beta
    return params.alpha_star * l1 <= params.radius * (1 + 1e-12)


def build_window(params: LatticeParams) -> Window:
    """Enumerate the window for the given parameters.

    Returns the sites (r, i, j) with r <= level_max and
    alpha_star * (|i*alpha| + |j*beta|) <= radius, in lexicographic order.
    """
    a_star = params.alpha_star
    # one step past the floor: _inside admits sites a rounding past the radius
    imax = int(np.floor(params.radius / (a_star * params.alpha))) + 1
    jmax = int(np.floor(params.radius / (a_star * params.beta))) + 1
    triples = [(r, i, j) for r in range(params.level_max + 1)
               for i in range(-imax, imax + 1) for j in range(-jmax, jmax + 1)
               if _inside(params, i, j)]
    return window_from_triples(params, triples)


def window_from_triples(params: LatticeParams, triples) -> Window:
    """Window over an explicit site list given as (r, i, j) triples.

    Sites are deduplicated and put into the canonical lexicographic order;
    every site must respect level_max and fit inside the window radius.
    """
    seen = sorted({(int(r), int(i), int(j)) for r, i, j in triples})
    if not seen:
        raise LatticeError("window needs at least one site")
    sites = []
    for r, i, j in seen:
        if r < 0 or r > params.level_max:
            raise LatticeError(f"site level {r} outside 0..{params.level_max}")
        if not _inside(params, i, j):
            raise LatticeError(f"site ({r},{i},{j}) outside the window radius {params.radius}")
        sites.append(Site(r, i, j))
    levels = np.array([s.r for s in sites], dtype=np.int64)
    gxy = np.array([s.gamma(params) for s in sites], dtype=np.float64)
    return Window(params=params, sites=tuple(sites), levels=levels, gxy=gxy)


def build_chain(params: LatticeParams, length: int) -> Window:
    """A one-dimensional window: `length` consecutive sites along the i-axis
    on the lowest level, containing the origin and as centered as parity
    allows; chains built with growing lengths are nested.  The length alone
    sets the chain: a radius too small to hold it is widened to the reach of
    its farthest site, (0, -(length // 2), 0)."""
    if length < 1:
        raise LatticeError(f"chain length must be positive, got {length}")
    reach = params.alpha_star * ((length // 2) * params.alpha)
    if reach > params.radius:
        params = replace(params, radius=reach)
    lo = -(length - 1) // 2
    return window_from_triples(params, [(0, lo + k, 0) for k in range(length)])


def m_epsilon(params: LatticeParams, eps: float) -> float:
    """Closed-form dominator of the exponential localization sum.

    sup over lattice labels gamma of sum_xi exp(-eps * dist(gamma, xi)) on
    the infinite lattice is at most (2 / (1 - exp(-eps * alpha_star**2)))**2,
    times the level factor (1 + exp(-eps)) / (1 - exp(-eps)) when more than
    one level is present.
    """
    if eps <= 0:
        raise LatticeError(f"eps must be positive, got {eps}")
    bound = (2.0 / (1.0 - np.exp(-eps * params.alpha_star ** 2))) ** 2
    if params.level_max > 0:
        bound *= (1.0 + np.exp(-eps)) / (1.0 - np.exp(-eps))
    return float(bound)
