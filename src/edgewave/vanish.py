"""Order-by-order constraint systems on the wave-expansion coefficients.

For each order n the unknowns are the 2(2n+1) coefficients
{a_n^m, b_n^m : m in [n]_0}, ordered as

    b_n^0, a_n^0, then for m = 1..n: a_n^m, a_n^{-m}, b_n^m, b_n^{-m}.

The assembled rows for the impedance-impedance pairing are

  * the two recursive chains per face: the order-n relations obtained by
    comparing the r^{n-1} coefficient of the tangential boundary series
    against each Legendre component mu = 0..n (tags "faceJ-chain-eK mu=M"),
  * three matching rows from equating the two faces' edge combinations
    (tags "matching-x/y/z"), and
  * three rows from the face-2 condition evaluated on the edge
    (tags "face2-edge-x/y/z").

At n = 1 only the relations actually derived at first order enter: the two
3x3 head blocks (block A on a_1^{+-1}, b_1^0; block B on b_1^{+-1}, a_1^0)
plus the third face-2 edge row.  The PEC/PMC pairing assembles the leading
tangential relations plus the second-lowest-order coupling rows.  Mixed
pairings are reduced by the reflection principle to an impedance-impedance
system at the doubled angle given by the four-branch table, in
effective_config alone, which every consumer reads.

The impedance rows are in the scaled unknowns k a_n^m, eta2 b_n^m, a column
scaling that keeps every nullity: each a-entry is linear in k and each
b-entry in its face's eta.  A chain entry at column (a, m) is i c e^{i m phase},
at (b, m) r c e^{i m phase}: c a constant of (n, mu, m), phase 0 on face 1 and
alpha*pi on face 2, r = eta1/eta2 on face 1 and 1 on face 2.  A PEC/PMC entry
is c e^{i m phase}, and the six edge rows have 17 structurally nonzero entries,
each an edge value (_edge_values) times its column's radial weight.
_entry_values computes all of them, for one order or for many, from one row
of configuration factors and one row of phases.

Of a series impedance eta0 + sum_j eta_j(theta) r^j only eta0 enters the
rows.  Under the induction hypothesis the coefficients of degree below n
vanish, so E and curl E start with their degree-n part at r^{n-1}.  A term
eta_j r^j therefore first acts at r^{n-1+j}, past the r^{n-1} coefficient
the order-n rows compare, for every j >= 1.

The rank is decided on two parity classes of 2n+1 columns each: class 0
holds a_m with m even and b_m with m odd, class 1 the rest.  No row couples
them: chain row e1 mu touches a_mu and b_{mu+-1}, e2 mu touches a_{mu+-1}
and b_mu, the edge rows have orders <= 1 (a_{+-1} with b_0, or b_{+-1} with
a_0), and a PEC/PMC row one family at one |m|.  So the singular values are
the union of the two blocks'.  Each block is assembled in the cascade's
sum/difference basis, x_m + x_-m and x_m - x_-m per pair (fam, +-m), where
a grid hit's null directions lie (_certified_nullities).

A layout, built in one pass vectorized over a run of orders and cached per
(orders, pairing), maps every entry to its flat position in its order's
parity blocks, pairs the entries of each (fam, +-m) column pair in a row,
and plans the rank certificate: the entry products that form each class's
Gram band and the windows that factor it; its builder raises ValueError
naming any row with entries in both classes.  _systems fills a run of
orders in one pass and returns each order's ConstraintSystem;
vanishing_order and assemble_order_system both take theirs from it, so both
decide on the same blocks.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Union

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo

from .angles import DETECT_TOL, Angle, AngleError, grid_exclusion_order, sincos_pi
from .corner import EdgeCornerConfig, ImpedanceKind, ImpedanceSpec
from .swe import MAX_LMAX, _norm_constants, norm_constant

INFINITE = math.inf
MAX_ORDER = MAX_LMAX   # an order-n system reads the degree-n modes
ETA_RATIO_WINDOW = (1e-8, 1e8)   # the |eta1/eta2| the rank is decided at
CERTIFY_THETA = 1e-9   # shift theta S, S = 2c >= s_max^2 (Cauchy-Schwarz; slack 1e-14)
CERTIFY_TOLS = (1e-12, math.sqrt(CERTIFY_THETA) / 100)   # see _certified_nullities
_ROOT_TWO = math.sqrt(2.0)
_HALF_BAND = 5   # a row spans at most 6 class slots (_gram_pairs checks it)
_PAIR_CHUNK = 1 << 14   # pair products per pass of _gram_band, about 256 kB
# Slots per block of the windowed factorization (_factor_windows), at least
# _HALF_BAND; 7 is the least with one window per lane up to order 6.  Against
# the dense per-order certificate this replaced, on the sweep benchmark's
# seed 10 (128 queries, in process, one BLAS thread, queries alternated), the
# median change per query at n_max 6 / 12 / 24 read: 6: +3.9 / -15.1 /
# -33.7%; 7: -3.9 / -16.8 / -34.5%; 8: -2.3 / -15.1 / -33.8%; 9: -1.2 /
# -16.9 / -30.2%; 10: +0.9 / -13.0 / -30.3%.
_WINDOW = 7


class CaseKind(Enum):
    IMP_IMP = "imp-imp"
    PEC_PMC = "pec-pmc"
    IMP_PEC = "imp-pec"
    IMP_PMC = "imp-pmc"


class UnsupportedPairingError(ValueError):
    pass


class RankAmbiguityError(RuntimeError):
    """A singular value fell inside the undecidable band around the threshold."""

    def __init__(self, message, order=None, values=()):
        super().__init__(message)
        self.order = order
        self.values = tuple(values)


class BoundInvariantError(RuntimeError):
    """The assembled bound fell below min(grid bound, n_max): a nullspace
    appeared at an order where the angle grid guarantees none."""

    def __init__(self, message, assembled, guaranteed):
        super().__init__(message)
        self.assembled = assembled
        self.guaranteed = guaranteed


_SERIES, _PEC, _PMC = (ImpedanceKind.SERIES, ImpedanceKind.INFINITE,
                       ImpedanceKind.ZERO)

# Per pairing: the (face 1, face 2) boundary kinds, the exclusion grid of the
# theorem bound, and the denominator of the angles where the first-order head
# blocks already degenerate (the B-block determinant carries sin^2 cos^2).
# The N = 1 induction step needs those excluded even though the grids of the
# N >= 2 steps start later.
_PAIRINGS = {
    CaseKind.IMP_IMP: ((_SERIES, _SERIES), "qp", 2),
    CaseKind.PEC_PMC: ((_PEC, _PMC), "q2p", None),
    CaseKind.IMP_PEC: ((_PEC, _SERIES), "q2p", 4),
    CaseKind.IMP_PMC: ((_PMC, _SERIES), "q2p", 4),
}


def case_of_config(config):
    """Classify a config's boundary pairing; PEC-PEC/PMC-PMC are rejected
    (the README says why), and so is the flat angle, which has no edge."""
    if config.alpha.value == 1.0:
        raise AngleError("the flat angle alpha = 1 has no edge-corner")
    kinds = (config.bc1.kind, config.bc2.kind)
    for case, (faces, _, _) in _PAIRINGS.items():
        if faces == kinds:
            return case
    raise UnsupportedPairingError(
        f"unsupported boundary pairing ({kinds[0].name}, {kinds[1].name}); "
        f"edgewave analyzes {', '.join(case.value for case in _PAIRINGS)}")


def config_for_case(case, alpha, eta1, eta2, k):
    """Config of the pairing `case`; eta1 and eta2 are read only on the faces
    that carry an impedance series, and must be given there (the error names
    them by their command-line flags).
    """
    faces = tuple(zip(_PAIRINGS[case][0], (eta1, eta2)))
    missing = [f"--eta{i}" for i, (kind, eta) in enumerate(faces, 1)
               if kind == _SERIES and eta is None]
    if missing:
        raise ValueError(f"{case.value} requires {' and '.join(missing)}")
    bc1, bc2 = (ImpedanceSpec.series(eta) if kind == _SERIES else ImpedanceSpec(kind)
                for kind, eta in faces)
    return EdgeCornerConfig(alpha, bc1, bc2, k)


def column_labels(n):
    cols = [("b", 0), ("a", 0)]
    for m in range(1, n + 1):
        cols += [("a", m), ("a", -m), ("b", m), ("b", -m)]
    return cols


@dataclass
class ConstraintSystem:
    """Labeled linear system over the order-n unknowns k a and eta2 b (a, b
    for pec-pmc), held as the entries of its rows scaled to unit 2-norm and
    each row's 2-norm, in provenance order, read from the pass of _systems
    that filled it.  blocks scatters the entries into the rows split by
    parity class (zero rows pad the shorter block) each time it is read, so
    a report builds no order's blocks unless the SVD decides it; rows
    rebuilds the dense rows in a and b from blocks and norms.
    The blocks are in the cascade's sum/difference basis: class slot 2m-1
    holds x_m + x_-m and slot 2m holds x_m - x_-m, slot 0 sqrt(2) x_0, for
    the class's unknowns x (_butterfly)."""

    n: int
    case: CaseKind
    config: EdgeCornerConfig          # config the rows were assembled at
    fill: _Fill = field(repr=False)   # the pass of _systems it comes from
    part: int                         # its order's index in fill.layout.parts

    @property
    def norms(self):
        """Float, shape (nrows,)."""
        return self.fill.norms[self.fill.layout.parts[self.part][2]]

    @property
    def blocks(self):
        """Complex, shape (2, height, 2n+1)."""
        layout = self.fill.layout
        _, entries, _, height, _ = layout.parts[self.part]
        blocks = np.zeros((2, height, 2 * self.n + 1), dtype=complex)
        blocks.reshape(-1)[layout.pos[entries]] = self.fill.values[entries]
        return blocks

    @property
    def provenance(self):
        return list(_tags(self.n, self.case))

    @property
    def column_scale(self):
        """k on an a-column, eta2 on a b-column; ones for pec-pmc."""
        k, eta2 = (1.0, 1.0) if self.case == CaseKind.PEC_PMC else (
            self.config.k, self.config.bc2.eta0)
        return np.array([k if fam == "a" else eta2
                         for fam, _ in column_labels(self.n)])

    @property
    def rows(self):
        """Dense rows in a and b, complex of shape (nrows, 2(2n+1)), in
        provenance order and column_labels order."""
        layout = _layout((self.n,), self.case)
        values = self.blocks.reshape(-1)[layout.pos]
        _butterfly(values, layout)
        rows = np.zeros((self.norms.size, 2 * (2 * self.n + 1)), dtype=complex)
        rows[layout.row, layout.col] = values * (self.norms[layout.row] / 2)
        return rows * self.column_scale

    @property
    def head_blocks(self):
        """(A, B), det A ~ sin^2 and det B ~ sin^2 cos^2: the 3x3 head blocks
        cut from the rows by tag, on the combinations (x^1 + x^-1,
        x^1 - x^-1, third) of the unknowns, x = a and third = b^0 for A,
        x = b and third = a^0 for B; None for pec-pmc, which has none."""
        if self.case == CaseKind.PEC_PMC:
            return None
        # the order-1 columns lead every order's column_labels
        col, rows, tags = column_labels(1).index, self.rows, self.provenance
        blocks = []
        for names, fam, third in (
                (("matching-x", "matching-y", "face1-chain-e2 mu=0"), "a", ("b", 0)),
                (("face2-edge-x", "face2-edge-y", "matching-z"), "b", ("a", 0))):
            head = rows[[tags.index(name) for name in names]]
            plus, minus = head[:, col((fam, 1))], head[:, col((fam, -1))]
            blocks.append(np.stack([(plus + minus) / 2, (plus - minus) / 2,
                                    head[:, col(third)]], axis=1))
        return tuple(blocks)


# ---------------------------------------------------------------------------
# entries of the order-n rows, for many orders at once
# ---------------------------------------------------------------------------

def _read_only(*arrays):
    """The arrays, write-protected: the caches hand them to every call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pairs(orders, first):
    """(order index, n, j) for every n of orders and j = first..n."""
    counts = orders + 1 - first
    k = np.repeat(np.arange(orders.size), counts)
    return k, orders[k], np.arange(k.size) - np.repeat(np.cumsum(counts) - counts,
                                                       counts) + first


def _entries(terms):
    """Entry vectors (order index, row, column, factor, turn, constant) of
    terms (order index, row, face, is_a, order m, constant, sign): an m >= 1
    enters column (fam, m) with the constant and (fam, -m) with sign times
    it.  The factor is 0 (i) on an a-column and 1 + face (the face's eta over
    eta2) on a b-column; turn = face * m."""
    k, r, f, a, m, v, sign = (np.concatenate(x) for x in zip(
        *(np.broadcast_arrays(*map(np.atleast_1d, t)) for t in terms)))
    pair = m > 0
    k, r, f, a = (np.concatenate([x, x[pair]]) for x in (k, r, f, a))
    m, v = np.concatenate([m, -m[pair]]), np.concatenate([v, (sign * v)[pair]])
    cols = np.where(m == 0, a, 4 * np.abs(m) - 2 + 2 * ~a + (m < 0))
    return k, r, cols, np.where(a, 0, 1 + f), f * m, v


def _chain_entries(orders):
    """Entries of both faces' order-n recursive chains at each n of orders,
    numbered after the six edge rows; a-entries carry i, b-entries the face's
    eta over eta2."""
    k, n, mu = _pairs(orders, 0)
    c = _norm_constants(n, mu)
    sL = np.sqrt(n * (n + 1))
    w = (n + 1) / (2 * (2 * n + 1) * sL)
    every, lo, hi = slice(None), np.flatnonzero(mu < n), np.flatnonzero(mu > 0)
    up = w[lo] * c[lo + 1] * (n[lo] + mu[lo] + 1) * (n[lo] - mu[lo])
    down = w[hi] * c[hi - 1] * (1 + (mu[hi] == 1))
    diag = sL * c / (2 * n + 1)
    e2 = n + 1                                       # first e2 row of a face
    one_face = [(every, mu, True, mu, diag),                 # e1 mu: a_mu
                (lo, mu[lo], False, mu[lo] + 1, -up),        # e1 mu: b_{mu+1}
                (hi, mu[hi], False, mu[hi] - 1, down),       # e1 mu: b_{mu-1}
                (lo, e2[lo] + mu[lo], True, mu[lo] + 1, up),      # e2 mu: a_{mu+1}
                (hi, e2[hi] + mu[hi], True, mu[hi] - 1, -down),   # e2 mu: a_{mu-1}
                (every, e2 + mu, False, mu, diag)]           # e2 mu: b_mu
    return _entries([(k[at], 6 + 2 * e2[at] * face + row, face, a, m, v, 1)
                     for face in (0, 1) for at, row, a, m, v in one_face])


def _pecpmc_entries(orders):
    """Entries of the PEC/PMC rows at each n of orders: per m, the face-1 sum
    of b_{+-m}, the face-2 phased sum of a_{+-m} and the two coupling
    differences."""
    k, n, m = _pairs(orders, 1)
    c = _norm_constants(n, m)
    r = 2 + 4 * (m - 1)
    every = np.arange(orders.size)
    return _entries([(every, 0, 0, False, 0, 1.0, 1), (every, 1, 1, True, 0, 1.0, 1),
                     (k, r, 0, False, m, c, 1), (k, r + 1, 1, True, m, c, 1),
                     (k, r + 2, 0, True, m, 1.0, -1), (k, r + 3, 1, False, m, 1.0, -1)])


_EDGE_TAGS = ("matching-x", "matching-y", "matching-z",
              "face2-edge-x", "face2-edge-y", "face2-edge-z")
# (row, column) of each structurally nonzero edge entry, in the order of
# _edge_values; columns 0..5 are b_0, a_0, a_1, a_-1, b_1, b_-1
_EDGE_ENTRIES = ((0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5),
                 (2, 3, 0, 2, 3, 0, 4, 5, 4, 5, 1, 4, 5, 1, 2, 3, 0))
_HEAD_ROW = 8   # "face1-chain-e2 mu=0" at n = 1, the one chain row kept there


def _edge_entries(orders):
    """The six edge rows at each n of orders; factor 3 + j is edge value j at
    unit weights, the constant its column's weight at n (Ap at m = 0, Kp)."""
    count = len(_EDGE_ENTRIES[0])
    k = np.repeat(np.arange(orders.size), count)
    r, cols, j = (np.tile(x, orders.size) for x in (*_EDGE_ENTRIES, np.arange(count)))
    Kp, Ap = _radial_weights(orders)
    return k, r, cols, 3 + j, np.zeros_like(k), np.where(cols < 2, Ap[k], Kp[k])


def _pattern(orders, case):
    """Entries (order index, row, column, factor, turn, constant) of the rows
    case assembles at each n of orders: for imp-imp the six edge rows, then
    the chains, of which only the first-order relation enters at n = 1."""
    if case == CaseKind.PEC_PMC:
        return _pecpmc_entries(orders)
    chain = _chain_entries(orders)
    keep = (orders[chain[0]] > 1) | (chain[1] == _HEAD_ROW)
    chain = [x[keep] for x in chain]
    chain[1] = np.where(orders[chain[0]] > 1, chain[1], 6)
    return [np.concatenate(x) for x in zip(_edge_entries(orders), chain)]


@lru_cache(maxsize=None)
def _tags(n, case):
    """Row tags of the order-n rows of case, in row order."""
    if case == CaseKind.PEC_PMC:
        return ("face1-pec b0", "face2-pmc a0") + tuple(
            f"{tag} m={j}" for j in range(1, n + 1)
            for tag in ("face1-pec sum", "face2-pmc phased-sum",
                        "face1-pec coupling-diff", "face2-pmc coupling-diff"))
    if n == 1:
        return _EDGE_TAGS + ("face1-chain-e2 mu=0",)
    return _EDGE_TAGS + tuple(f"face{f}-chain-e{e} mu={j}" for f in (1, 2)
                              for e in (1, 2) for j in range(n + 1))


def _edge_values(s, co, Kp, Ap, eta1, eta2, k):
    """The _EDGE_ENTRIES of the matching rows and the face-2 edge rows, which
    reach orders m <= 1 only.

    s, co are sin and cos of the opening angle; Kp, Ap the radial weights of
    the m = 1 and m = 0 edge terms (see _radial_weights).  A report takes the
    values at unit weights and k = eta2 = 1, eta1/eta2 on face 1."""
    return (
        # matching-x, matching-y: a_1, a_-1, b_0
        1j * k * Kp * s * s - k * Kp * s * co, 1j * k * Kp * s * s + k * Kp * s * co,
        -(eta1 + eta2 * co) * Ap,
        -1j * k * Kp * s * co - k * Kp * s * s, -1j * k * Kp * s * co + k * Kp * s * s,
        -eta2 * s * Ap,
        # matching-z: b_1, b_-1
        (eta1 - eta2 * co) * Kp + 1j * eta2 * s * Kp,
        (eta1 - eta2 * co) * Kp - 1j * eta2 * s * Kp,
        # face2-edge-x, face2-edge-y: b_1, b_-1, a_0
        -eta2 * co * co * Kp + 1j * eta2 * s * co * Kp,
        -eta2 * co * co * Kp - 1j * eta2 * s * co * Kp, 1j * k * co * Ap,
        eta2 * s * co * Kp + 1j * eta2 * s * s * Kp,
        eta2 * s * co * Kp - 1j * eta2 * s * s * Kp, 1j * k * s * Ap,
        # face2-edge-z: a_1, a_-1, b_0
        1j * k * Kp * co + k * Kp * s, 1j * k * Kp * co - k * Kp * s, eta2 * Ap)


def _radial_weights(n):
    """(Kp, Ap) at the orders n (an array)."""
    c0, c1 = _norm_constants(n, 0), _norm_constants(n, 1)
    sL = np.sqrt(n * (n + 1))
    return n * (n + 1) ** 2 * c1 / (2 * (2 * n + 1) * sL), sL * c0 / (2 * n + 1)


def edge_rows(s, co, Kp, Ap, eta1, eta2, k, ncols):
    """Matching rows plus face-2 edge rows (six rows, see _edge_values)."""
    rows = np.zeros((6, ncols), dtype=complex)
    rows[_EDGE_ENTRIES] = _edge_values(s, co, Kp, Ap, eta1, eta2, k)
    return rows


@lru_cache(maxsize=None)
def _closed_det_prefactor(n):
    c0, c1 = norm_constant(n, 0), norm_constant(n, 1)
    return ((n + 1) / (2 * n + 1)) ** 3 * n * math.sqrt(n * (n + 1)) / 2 * c1 ** 2 * c0


def _closed_dets(n, eff):
    """Closed (det A, det B) in a and b of the order-n head blocks at the
    impedance-impedance config eff; ValueError where they overflow a float."""
    ap = eff.alpha.value * math.pi
    prefactor = _closed_det_prefactor(n)
    try:
        dets = (-1j * eff.k ** 2 * eff.bc1.eta0 * prefactor * math.sin(ap) ** 2,
                -eff.k * eff.bc2.eta0 ** 2 * prefactor
                * math.sin(ap) ** 2 * math.cos(ap) ** 2)
        if cmath.isfinite(dets[0]) and cmath.isfinite(dets[1]):
            return dets
    except OverflowError:
        pass
    raise ValueError(f"k = {eff.k!r} with eta = {eff.bc1.eta0!r}, "
                     f"{eff.bc2.eta0!r} overflows the boundary system")


def closed_dets(n, config):
    """Closed (det A, det B) of assemble_order_system(n, config).head_blocks."""
    case, eff = effective_config(config)
    if case == CaseKind.PEC_PMC:
        raise UnsupportedPairingError("pec-pmc systems have no head blocks")
    return _closed_dets(n, eff)


def block_det(m, alpha, kind):
    """Cascade block determinants: -2i sin(m alpha pi) or 2 cos(m alpha pi)."""
    if m < 1:
        raise ValueError("block index must be >= 1")
    aval = alpha.value if hasattr(alpha, "value") else float(alpha)
    if kind == "sin":
        return -2j * math.sin(m * aval * math.pi)
    if kind == "cos":
        return 2.0 * math.cos(m * aval * math.pi)
    raise ValueError("kind must be 'sin' or 'cos'")


def _require_pmc_range(alpha, case):
    if case == CaseKind.IMP_PMC and not (0 < alpha.value < 1):
        raise ValueError("the PMC-impedance pairing is defined for alpha in (0,1)")


def reflected_angle(alpha, case):
    """Doubled angle of the reflected configuration, by the four-branch table:
    2a on (0,1/2), 2(1-a) on [1/2,1), 2(a-1) on (1,3/2), 2(2-a) on [3/2,2).

    The branch the float value selects is applied to the fraction as well.
    Doubling doubles the value's distance to it, so it is kept only within
    DETECT_TOL, as every tagged Angle must be.
    """
    _require_pmc_range(alpha, case)
    a = alpha.value
    if a == 1:
        raise ValueError(f"angle {a} out of range")
    shift, sign = ((0, 1), (1, -1), (-1, 1), (2, -1))[int(2 * a)]
    value, frac = 2 * (shift + sign * a), None
    if alpha.rational is not None:
        fr = 2 * (shift + sign * Fraction(*alpha.rational))
        if abs(value - fr.numerator / fr.denominator) <= DETECT_TOL:
            frac = (fr.numerator, fr.denominator)
    return Angle(value, frac)


def effective_config(config):
    """(case, config') with config' the config the rows are assembled at:
    config itself for imp-imp and pec-pmc.  By the reflection principle the
    impedance face's series transfers to the mirror image of the PEC or PMC
    face, at the doubled angle reflected_angle(alpha, case), which may be 1."""
    case = case_of_config(config)
    if case in (CaseKind.IMP_IMP, CaseKind.PEC_PMC):
        return case, config
    return case, EdgeCornerConfig(reflected_angle(config.alpha, case), config.bc2,
                                  config.bc2, config.k)


def _assembled_case(case):
    """The pairing whose rows case is assembled as: pec-pmc or imp-imp."""
    return CaseKind.PEC_PMC if case == CaseKind.PEC_PMC else CaseKind.IMP_IMP


# ---------------------------------------------------------------------------
# layouts: where each entry lands in its order's two parity blocks
# ---------------------------------------------------------------------------

class _Layout(NamedTuple):
    """Where the entries of the rows case assembles at a run of orders land.

    Entry i has the value const * F[factor] * e^{i turn alpha' pi}: F is the
    factor row of _entry_values, const a constant of n (an edge's weight).
    Entries are grouped by row, starts holding each row's first; rows are
    numbered across the orders.  Entry i sits at (row, col) of the rows and
    at flat index pos of its order's parity blocks.  plus[j] and minus[j]
    are the entries of one row in columns (fam, m) and (fam, -m), m >= 1;
    zero holds the entries in the columns m = 0.  The Gram bands of all
    orders are one array of rows (order, class, slot), _HALF_BAND + 1 wide;
    left[j] and right[j] are two entries of one row, the second in a slot at
    most _HALF_BAND before the first, whose product adds to one band entry.
    chunks cuts the pairs into (pair slice, start, stop) pieces of at most
    about _PAIR_CHUNK pairs, each adding to the band's float parts from
    start to stop alone; spot[2j] and spot[2j + 1] place the real and
    imaginary part of pair j's product there.  shift holds S = 2c per
    order, c the most entries in one band row (_certified_nullities);
    parts holds, per order, (n, its entry slice, row slice, block height
    and band rows), and windows the plan of _factor_windows (_window_plan).
    """
    case: CaseKind
    n: np.ndarray
    const: np.ndarray
    factor: np.ndarray
    turn: np.ndarray
    row: np.ndarray
    col: np.ndarray
    pos: np.ndarray
    starts: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray
    left: np.ndarray
    right: np.ndarray
    spot: np.ndarray
    shift: np.ndarray
    chunks: tuple
    parts: tuple
    windows: tuple


def _columns(col):
    """(parity class, slot in the class) of column indices in column_labels
    order: b_0, a_0, then a_m, a_-m, b_m, b_-m at 4m-2..4m+1.  Column (fam, m)
    lies in class (m + [fam = b]) mod 2, at slot 0 for m = 0 and
    2|m| - 1 + [m < 0] otherwise."""
    m = np.where(col < 2, 0, (col + 2) // 4)
    is_b = (col == 0) | (col >= 4) & (col % 4 < 2)
    return (m + is_b) % 2, np.where(m == 0, 0, 2 * m - 1 + col % 2)


def _build_layout(orders, case):
    """Layout of the rows case assembles at each n of orders, in one pass
    over all of them.  A row joins the parity class of its entries' columns,
    after the rows before it in that class; a row with entries in both
    classes raises ValueError naming its tag.  Every entry in a column
    (fam, m), m >= 1, has a partner in (fam, -m) of its row (_entries and
    _EDGE_ENTRIES emit both), the next entry of its row in column order."""
    k, row, col, factor, turn, const = _pattern(orders, case)
    order = np.lexsort((row, k))
    k, row, col, factor, turn, const = (x[order] for x in (k, row, col, factor,
                                                           turn, const))
    entry_class, col_slot = _columns(col)
    new = (np.diff(k, prepend=-1) != 0) | (np.diff(row, prepend=-1) != 0)
    starts = np.flatnonzero(new)
    row_class = np.minimum.reduceat(entry_class, starts)
    mixed = np.flatnonzero(np.maximum.reduceat(entry_class, starts) > row_class)
    if mixed.size:
        first = starts[mixed[0]]
        tag = _tags(int(orders[k[first]]), case)[row[first]]
        raise ValueError(f"row {tag!r} has nonzeros in both parity classes")
    rows = np.bincount(k[starts], minlength=orders.size)
    first_row = np.cumsum(rows) - rows
    ones = np.add.reduceat(row_class, first_row)
    in_order = np.arange(row_class.size) - np.repeat(first_row, rows)
    ones_before = np.cumsum(row_class) - row_class - np.repeat(
        np.cumsum(ones) - ones, rows)
    row_slot = np.where(row_class == 1, ones_before, in_order - ones_before)
    height = np.maximum(ones, rows - ones)
    grow = np.cumsum(new) - 1
    width = 2 * orders + 1
    pos = (row_class[grow] * height[k] + row_slot[grow]) * width[k] + col_slot
    by_col = np.lexsort((col, grow))
    plus = np.flatnonzero((col[by_col] >= 2) & (col[by_col] % 2 == 0))
    band_cut = np.append(0, np.cumsum(2 * width))
    band_row = band_cut[k] + row_class[grow] * width[k] + col_slot
    left, right, spot, chunks = _gram_pairs(starts, col_slot, band_row)
    shift = 2.0 * np.maximum.reduceat(np.bincount(band_row), band_cut[:-1])
    entry_cut = np.searchsorted(k, np.arange(orders.size + 1)).tolist()
    row_cut = np.append(first_row, row_class.size).tolist()
    band_cut = band_cut.tolist()
    parts = tuple((n, slice(*entry_cut[j:j + 2]), slice(*row_cut[j:j + 2]),
                   int(height[j]), slice(*band_cut[j:j + 2]))
                  for j, n in enumerate(orders.tolist()))
    return _Layout(case, *_read_only(orders, const, factor, turn, grow, col, pos,
                                     starts, by_col[plus], by_col[plus + 1],
                                     np.flatnonzero(col < 2), left, right, spot,
                                     shift),
                   chunks, parts, _window_plan(orders))


def _gram_pairs(starts, slot, band_row):
    """The pair plan of _Layout for entries grouped by row from starts, at
    the given class slots and band rows: every pair of entries of a row, an
    entry with itself included, once, oriented so that the first's slot is
    not below the second's, and sorted by the band entry it adds to.  A row
    spanning more than _HALF_BAND + 1 slots raises ValueError.  The plan is
    int32 throughout, which halves its temporaries."""
    starts, slot, band_row = (x.astype(np.int32) for x in (starts, slot, band_row))
    count = np.diff(starts, append=np.int32(slot.size))
    if count.max(initial=0) > _HALF_BAND + 1:
        raise ValueError(f"a row spans more than {_HALF_BAND + 1} class slots")
    first, second = [], []
    for a, b in itertools.product(range(_HALF_BAND + 1), repeat=2):
        rows = starts[count > max(a, b)]
        if a != b:
            rows = rows[slot[rows + a] > slot[rows + b]]
        first.append(rows + a)
        second.append(rows + b)
    first, second = np.concatenate(first), np.concatenate(second)
    offset = slot[first] - slot[second]
    if offset.max(initial=0) > _HALF_BAND:
        raise ValueError(f"a row spans more than {_HALF_BAND + 1} class slots")
    target = band_row[first] * (_HALF_BAND + 1) + offset
    by_target = np.argsort(target, kind="stable")
    first, second, target = first[by_target], second[by_target], target[by_target]
    # chunk j covers the band entries from edges[j] to edges[j + 1]; each
    # edge starts a run of pairs, at most _PAIR_CHUNK pairs after the last
    runs = np.flatnonzero(np.diff(target, prepend=-1))
    cut = runs[np.searchsorted(runs, np.arange(0, target.size, _PAIR_CHUNK),
                               side="right") - 1]
    cut = cut[np.diff(cut, prepend=-1) > 0]
    edges = np.append(target[cut], (band_row.max(initial=-1) + 1) * (_HALF_BAND + 1))
    edges[0] = 0
    pair_cut = np.append(cut, target.size).tolist()
    spot = np.empty(2 * target.size, dtype=np.int32)
    spot[0::2] = 2 * (target - np.repeat(edges[:-1], np.diff(pair_cut)))
    spot[1::2] = spot[0::2] + 1
    chunks = tuple((slice(*pair_cut[j:j + 2]), 2 * int(edges[j]), 2 * int(edges[j + 1]))
                   for j in range(cut.size))
    return first, second, spot, chunks


@lru_cache(maxsize=None)
def _layout(orders, case):
    """Layout of the rows of case, imp-imp or pec-pmc, at the orders (a tuple)."""
    return _build_layout(np.array(orders), case)


def _entry_values(layout, eff):
    """Value of each entry of layout at eff, the config its rows are
    assembled at.  The factor row F holds i, eta1/eta2, 1 and the edge values
    at unit weights and k = eta2 = 1 for imp-imp, all ones for pec-pmc; the
    phase row holds e^{i t alpha' pi} for the turns t = -N..N, N the highest
    order.  No column scaling balances both faces' b-entries: an |eta1/eta2|
    outside ETA_RATIO_WINDOW, where the rank is undecided or wrong, raises."""
    if layout.case == CaseKind.PEC_PMC:
        table = np.ones(3)
    else:
        ratio = eff.bc1.eta0 / eff.bc2.eta0
        size, (low, high) = math.hypot(ratio.real, ratio.imag), ETA_RATIO_WINDOW
        if not low <= size <= high:
            raise ValueError(f"|eta1/eta2| = {size:.3g} is outside "
                             f"[{low:g}, {high:g}], where the rank is decided")
        table = np.array((1j, ratio, 1.0, *_edge_values(
            *sincos_pi(eff.alpha.value), 1.0, 1.0, ratio, 1.0, 1.0)))
    top = int(layout.n[-1])
    phase = eff.alpha.value * math.pi
    phases = np.exp(1j * phase * np.arange(-top, top + 1))
    return layout.const * table[layout.factor] * phases[layout.turn + top]


def assemble_order_system(n, config):
    """Full order-n constraint system for the configured boundary pairing,
    filled as one order of a report is (_systems); an |eta1/eta2| outside
    ETA_RATIO_WINDOW raises ValueError."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")
    source_case, eff = effective_config(config)
    return _systems(_layout((n,), _assembled_case(source_case)), eff)[0]


def _butterfly(values, layout):
    """Rewrite the entry values of layout in place: each pair (p, q) in
    columns (fam, m), (fam, -m) of a row becomes (p + q, p - q), and each
    value in a column m = 0 is multiplied by sqrt 2.  That is sqrt 2 times a
    unitary map of the columns, and applied twice it doubles the values."""
    p, q = values[layout.plus], values[layout.minus]
    values[layout.plus] = p + q
    values[layout.minus] = p - q
    values[layout.zero] *= _ROOT_TWO


class _Fill(NamedTuple):
    """One pass of _systems: the unit-row entry values of every order of
    layout, in the sum/difference basis, and every row's 2-norm."""
    layout: _Layout
    values: np.ndarray
    norms: np.ndarray


def _systems(layout, eff):
    """The ConstraintSystem of each order of layout, as a list, assembled at
    eff.  The entry values and row norms of all orders come from one pass,
    which also takes the unit rows to the sum/difference basis
    (_butterfly)."""
    values = _entry_values(layout, eff)
    norms = np.sqrt(np.add.reduceat(values.real ** 2 + values.imag ** 2,
                                    layout.starts))
    values /= np.where(norms > 0.0, norms, 1.0)[layout.row]
    _butterfly(values, layout)
    fill = _Fill(layout, values, norms)
    return [ConstraintSystem(n, layout.case, eff, fill, j)
            for j, (n, *_) in enumerate(layout.parts)]


def _gram_band(values, layout):
    """The lower Gram bands of the parity blocks of every order of layout,
    one row per (order, class, slot) and _HALF_BAND + 1 columns, then
    _PAD_ROW, from the unit-row entry values: a row of at most 6 entries
    adds at most 21 products, summed chunk by chunk of the pair plan."""
    band = np.empty((layout.parts[-1][-1].stop + 1, _HALF_BAND + 1), dtype=complex)
    band[-1] = _PAD_ROW
    parts = band.reshape(-1).view(float)
    for pairs, start, stop in layout.chunks:
        products = values.take(layout.left[pairs])
        np.conjugate(products, out=products)
        products *= values.take(layout.right[pairs])
        parts[start:stop] = np.bincount(layout.spot[2 * pairs.start:2 * pairs.stop],
                                        products.view(float), stop - start)
    return band


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _unit_rows(rows):
    """Rows of a matrix scaled to unit 2-norm, zero rows left at zero.  Row
    scaling leaves the nullspace unchanged.  Each row is first scaled by the
    power of two of its largest real or imaginary part, which is exact, so
    that its norm neither overflows nor underflows."""
    top = np.maximum(abs(rows.real), abs(rows.imag))
    _, exp = np.frexp(top.max(axis=1, keepdims=True, initial=0.0))
    rows = np.ldexp(rows.real, -exp) + 1j * np.ldexp(rows.imag, -exp)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


_CLASS_MASKS = _read_only(np.equal.outer(
    (0, 1), _columns(np.arange(2 * (2 * MAX_ORDER + 1)))[0]))[0]


def _parity_classes(n):
    """Column masks of parity class 0 (a_m with m even, b_m with m odd) and
    of class 1, in column_labels order: order n's columns are the first
    2(2n+1) of any higher order's."""
    return _CLASS_MASKS[:, :2 * (2 * n + 1)]


def _parity_blocks(system):
    """Rows split by parity class, stacked (classes, rows, columns), and
    each class's column mask.

    A ConstraintSystem holds its two blocks already, whose rows are sqrt 2
    times unit length, in the sum/difference basis.  A bare matrix is one
    class; one that is not 2-D or has a NaN or infinite entry raises
    ValueError.
    """
    if isinstance(system, ConstraintSystem):
        return system.blocks, _parity_classes(system.n)
    rows = np.asarray(system)
    if rows.ndim != 2:
        raise ValueError(f"the matrix must be 2-D, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        bad = "a NaN" if np.isnan(rows).any() else "an infinite"
        raise ValueError(f"the matrix has {bad} entry")
    return _unit_rows(rows)[None], np.ones((1, rows.shape[1]), dtype=bool)


def nullspace_dim(system, tol=1e-9):
    """Number of singular values below tol * s_max, with an ambiguity guard.

    system is a ConstraintSystem, a bare matrix, or a nonempty list of
    ConstraintSystems, decided in one call and answered by the list of
    their nullities.  The singular values are those of the rows scaled to
    unit length, for a ConstraintSystem taken on its two parity blocks.
    Relative singular values inside (tol/10, tol*10) are neither clearly
    zero nor clearly nonzero; these raise RankAmbiguityError instead of
    guessing.

    For tol in CERTIFY_TOLS the nullities of ConstraintSystems are first
    proven without the SVD, each pass of _systems among them whole, in one
    banded pass (_certified_nullities).  The SVD decides each system the
    certificate leaves undecided (_svd_nullity), every system for another
    tol, and a bare matrix such as the collocation rows.
    """
    batch = (isinstance(system, list) and len(system) > 0
             and all(isinstance(s, ConstraintSystem) for s in system))
    systems = system if batch else [system]
    dims = [None] * len(systems)
    if (isinstance(systems[0], ConstraintSystem)
            and CERTIFY_TOLS[0] <= tol <= CERTIFY_TOLS[1]):
        dims = _certified_nullities(systems, tol)
    dims = [_svd_nullity(s, tol) if d is None else d for s, d in zip(systems, dims)]
    return dims if batch else dims[0]


def _svd_nullity(system, tol):
    """Nullity of a ConstraintSystem or a bare matrix from the singular
    values of its parity blocks (_dim_from_values)."""
    blocks = _parity_blocks(system)[0]
    return sum(_dim_from_values(system, np.linalg.svd(blocks, compute_uv=False),
                                blocks.shape[-1], tol))


def _certified_nullities(systems, tol):
    """Per ConstraintSystem of systems, the nullity the SVD would give its
    parity blocks A at the threshold tol, proven from its Gram bands, or
    None where the proof is refused.  Each distinct pass of _systems among
    them is certified once and whole, every order of it at once.

    A's columns are in the cascade's sum/difference basis (ConstraintSystem):
    order n can lose rank only where a block determinant -2i sin(m alpha' pi),
    or 2 cos(m alpha pi) for pec-pmc, m <= n, vanishes, and at such a grid
    hit the null directions are x_m + x_-m or x_m - x_-m.  A face-1 row
    gives both columns of a pair bit-identical entries, so their difference
    is exactly 0 there, and a face-2 row leaves c sqrt(2) i sin(m alpha' pi)
    ~ 1e-16 c; for pec-pmc the zeros at cos(m alpha pi) = 0 are a sum on a
    and a difference on b.  So each column whose squared norm is at most
    (tol/100)^2 R/N^2 is deflated, R the squared Frobenius norm of A and N
    its column count.  Since R/N <= s_max^2, the d deflated columns, at most
    N of them, form a matrix E of spectral norm at most (tol/100) s_max.

    At n = 1 the head block B, det B ~ sin^2 cos^2(alpha' pi), also
    degenerates where cos(alpha' pi) = 0, and its null vector is no sum or
    difference, so no shift proves it: its lane is refused, and the SVD
    decides order 1.

    The Gram matrix G_c of each class is factored once, as G' = G_c -
    theta S I, theta = CERTIFY_THETA, with R on the diagonal of a deflated
    column.  The layout's S = 2c, c the most rows of the order that meet
    one class slot, bounds s_max^2 = max_c |G_c|: each nonzero row of A has
    2-norm sqrt 2 (_butterfly), so by Cauchy-Schwarz |Ax|^2 <= sum_r 2
    sum_{j in r} |x_j|^2 <= 2c |x|^2.  Rounding leaves s_max^2 <= S (1 +
    delta), delta < 1e-14 (pec-pmc attains S to 4.4e-16), which theta's
    margin below absorbs.  On n <= 85 reports S is 1.0 to 2.6 times
    s_max^2 and R 2 to 183 times it: an order is certified where its least
    relative singular value exceeds sqrt(theta S)/s_max, 3.2e-5 to 5.1e-5.

    Every row spans at most _HALF_BAND + 1 = 6 consecutive slots, so G_c
    has half-bandwidth _HALF_BAND, and its lower band is formed from the
    entry values (_gram_band).  _factor_windows factors it by blocks of
    b = _WINDOW slots, each step a dense Cholesky factorization of a window
    of two blocks, for every order of a pass and both classes at once.  A
    lane, one class of one order, is refused where one of its windows does
    not factor, and an order is proven where both its lanes factor: no
    window reads another lane's entries, so the argument below holds for
    each lane on its own.  If every window of a lane factors, L L^H = G' +
    F for its shifted matrix G', where F has nonzeros only within a
    window, |i - j| < 2b, and |F_ij| <= c_b eps (1 + O(eps)) ||l_i||
    ||l_j||, l_i row i of L, with c_b = 2(2b + 1) + b + 9 = 5b + 11:
    an entry takes the backward error of at most two window factorizations
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    Thm 10.3, inner products of length <= 2b), the rounding of the Schur
    complement L22 L22^H carried from one window to the next (length b),
    and that of the band, sums of at most 9 products.  Since ||l_i||^2 is
    G'_ii up to that error, and a kept column's G'_ii is at most s_max^2,
    the principal submatrix F_K on the kept columns has norm at most
    (4b - 1) c_b eps s_max^2, its greatest row sum: a constant of the
    window, not of N.  The kept columns' Gram matrix is G'_K + theta S I,
    and G'_K + F_K is positive definite, so they have every singular
    value at least sqrt(theta) s_max (1 - (4b - 1) c_b eps / theta -
    delta), and A with the deflated columns set to zero has d zero
    singular values and no other below that.  By Weyl's inequality
    |s_k(A + E) - s_k(A)| <= |E| (Golub and Van Loan, Matrix Computations,
    4th ed., 8.6.1), A itself has d singular values at most (tol/100) s_max
    and the others at least (sqrt(theta) - tol/100) s_max.

    The SVD computes each within about N eps s_max, 4e-14 s_max at n = 85.
    For tol in CERTIFY_TOLS = [1e-12, sqrt(theta)/100 = 3.2e-7] both groups
    clear the ambiguity band (tol/10, 10 tol) of nullspace_dim: at b = 7,
    (4b - 1) c_b eps = 27 * 46 * 2.2e-16 = 2.8e-13, which theta = 1e-9
    clears by a factor 3.6e3 at every order; the kept values
    lie 10 times above the band at tol = 3.2e-7; and at tol = 1e-12 the
    deflated ones, below 1e-14 + 4e-14, lie twice below it.  So the SVD
    would count d.
    """
    fills = {id(s.fill): s.fill for s in systems}
    dims = {key: _certified_pass(fill, tol) for key, fill in fills.items()}
    return [dims[id(s.fill)][s.part] for s in systems]


def _certified_pass(fill, tol):
    """_certified_nullities of every order of fill."""
    layout, values, _ = fill
    owner, starts, scale, plan = layout.windows
    band = _gram_band(values, layout)
    diagonal = band[:-1, 0].real
    unit = np.add.reduceat(diagonal, starts).take(owner)
    small = diagonal <= unit * ((tol / 100) ** 2 * scale)
    band[:-1, 0] = np.where(small, unit, diagonal - CERTIFY_THETA * layout.shift[owner])
    proven = _factor_windows(band, plan).reshape(-1, 2).all(axis=1).tolist()
    counts = np.add.reduceat(small, starts).tolist()
    return [d if ok else None for d, ok in zip(counts, proven)]


_PAD_ROW = _read_only(np.eye(1, _HALF_BAND + 1, dtype=complex))[0]


def _window_plan(orders):
    """The plan of _certified_pass for the orders of a layout: the order
    index of each band row, each order's first band row, 1/N^2 for each
    band row, N = 2w its order's column count, and per step of
    _factor_windows (lanes, index, carried).

    Each order holds two lanes, its classes, of width w = 2n + 1, numbered
    in order.  Window k of a lane covers its slots k b to (k + 2) b - 1,
    b = _WINDOW, for k = 0 to max(1, ceil(w/b) - 1) - 1; a slot past w is
    a pad slot, which reads the last band row, _PAD_ROW.  At step k, lanes
    holds the lanes with a window k, index (lanes, 2b, 2b) the flat band
    index of each entry of their windows on or below the diagonal within
    the band, the last entry of _PAD_ROW, a zero, elsewhere, and carried
    the place of each of them among the lanes of step k - 1."""
    w = np.repeat(2 * orders + 1, 2)
    base = np.cumsum(w) - w
    count = np.maximum(1, -(-w // _WINDOW) - 1)
    row, col = np.indices((2 * _WINDOW, 2 * _WINDOW))
    inside = (row >= col) & (row - col <= _HALF_BAND)
    pad = int(w.sum())
    plan, before = [], np.arange(w.size)
    for k in range(int(count.max())):
        lanes = np.flatnonzero(count > k)
        slot = k * _WINDOW + np.arange(2 * _WINDOW)
        rows = np.where(slot < w[lanes, None], base[lanes, None] + slot, pad)
        index = np.where(inside, rows[:, :, None] * (_HALF_BAND + 1) + row - col,
                         pad * (_HALF_BAND + 1) + _HALF_BAND)
        plan.append(_read_only(lanes, index.astype(np.int32),
                               np.searchsorted(before, lanes)))
        before = lanes
    owner = np.repeat(np.arange(orders.size), 2 * w[0::2])
    return (*_read_only(owner, base[0::2], 1.0 / (2.0 * w[owner * 2]) ** 2), tuple(plan))


def _factor_windows(band, plan):
    """Windowed block-tridiagonal Cholesky factorization of the band matrix
    of every lane, all lanes at once, and which lanes factored, a boolean
    per lane.

    A lane's first window is its first two blocks of b = _WINDOW slots, as
    the band holds them; each later one stacks on top the Schur complement
    of its first block, carried from the window before, and below the next
    block.  A band of half-bandwidth at most b couples that block to the
    carried one alone.  The windows of all lanes at a step factor in one
    call of cholesky_lo, the gufunc np.linalg.cholesky wraps, which reads
    the lower triangle only, and with L22 a factor's lower diagonal block,
    L22 L22^H is the Schur complement carried on.  Where np.linalg.cholesky
    raises for the whole batch, cholesky_lo returns NaN for each window
    that is not positive definite and the same factor for every other:
    each step refuses its lanes whose factor holds a NaN, and a refused
    lane's NaN Schur complement makes its later windows NaN too."""
    b, flat = _WINDOW, band.reshape(-1)
    factored = np.ones(plan[0][0].size, dtype=bool)
    for k, (active, index, carried) in enumerate(plan):
        windows = flat.take(index)
        if k:
            low = factor[carried, b:, b:]
            windows[:, :b, :b] = low @ low.conj().transpose(0, 2, 1)
        with np.errstate(invalid="ignore"):
            factor = cholesky_lo(windows)
        # a factor with a NaN has one at [0, 0]: a window that does not
        # factor comes back all NaN, and a NaN carried block starts with one
        factored[active] &= ~np.isnan(factor[:, 0, 0])
    return factored


def _dim_from_values(system, s, ncols, tol):
    """Nullity of each block of ncols columns from its singular values s
    (blocks, values), as a list.  Threshold and band are relative to the
    largest value of all blocks: the decision is that of the unsplit matrix.
    The few relative values are compared as Python floats.  A tol outside
    (0, 1), NaN included, decides nothing and is refused."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    top = s.max(initial=0.0)
    if top == 0.0:
        return [ncols] * len(s)
    rel = (s / top).tolist()
    low, high = tol / 10.0, tol * 10.0
    band = sorted((v for block in rel for v in block if low < v < high),
                  reverse=True)
    if band:
        raise RankAmbiguityError(
            f"singular values {band} within a factor 10 of threshold {tol}",
            order=getattr(system, "n", None), values=band)
    # a block with fewer rows than columns has ncols - len(block) more zeros
    return [ncols - len(block) + sum(v < tol for v in block) for block in rel]


def nullspace_basis(system, tol=1e-9):
    """Orthonormal basis of the nullspace in a and b, columns of shape
    (ncols, dim); each null vector lives on the columns of one parity class,
    class 0's first.  A ConstraintSystem's null vectors y, found in the
    sum/difference basis of k a and eta2 b, are taken back to k a and eta2 b
    by (y_2m-1 +- y_2m)/sqrt 2, then divided by its column_scale and
    orthonormalized again by one QR per class, its largest unknowns first:
    Householder QR on rows sorted by size is row-wise stable (Powell and
    Reid 1969; Cox and Higham 1998)."""
    blocks, classes = _parity_blocks(system)
    _, s, vh = np.linalg.svd(blocks)
    width = blocks.shape[-1]
    dims = _dim_from_values(system, s, width, tol)
    if isinstance(system, ConstraintSystem):
        odd, even = vh[..., 1::2], vh[..., 2::2]
        vh[..., 1::2], vh[..., 2::2] = (odd + even) / _ROOT_TWO, (odd - even) / _ROOT_TWO
    scale = getattr(system, "column_scale", np.ones(classes.shape[1]))
    basis = np.zeros((classes.shape[1], sum(dims)), dtype=complex)
    for cols, v, dim, end in zip(classes, vh, dims, np.cumsum(dims)):
        order = np.argsort(abs(scale[cols]), kind="stable")
        null = v[width - dim:, order].conj().T / scale[cols][order, None]
        basis[np.flatnonzero(cols)[order], end - dim:end] = np.linalg.qr(null)[0]
    return basis


# ---------------------------------------------------------------------------
# induction driver and report
# ---------------------------------------------------------------------------

def _json_pair(z):
    """z as json.dumps writes [z.real, z.imag], None as null."""
    if z is not None and not cmath.isfinite(z):
        raise ValueError(f"{z!r} has no JSON number")
    return "null" if z is None else f"[{z.real!r}, {z.imag!r}]"


@dataclass
class OrderDiagnostics:
    """One order n of a VanishReport: its nullity and, for the impedance
    pairings, its closed head-block determinants.  Its cascade block
    determinants, m = 2..n, are the first n - 1 of the report's block_dets."""
    n: int
    nullspace_dim: int
    det_A_closed: Optional[complex] = None
    det_B_closed: Optional[complex] = None


@dataclass
class VanishReport:
    """Orders 1..n_max of one configuration, each fact held once:
    block_dets is derived from the angle and order_lower_bound from the
    nullities.  from_json_dict refuses what to_json would not write back."""
    alpha: Angle
    case: CaseKind
    per_order: List[OrderDiagnostics]
    theorem_bound: Union[int, float]   # int or INFINITE

    @property
    def n_max(self):
        return self.per_order[-1].n if self.per_order else 0

    @property
    def block_dets(self):
        """The cascade block determinants, m = 2..n_max, at the angle alpha'
        the rows are assembled at; order n's are the first n - 1."""
        mixed = self.case != _assembled_case(self.case)
        angle = reflected_angle(self.alpha, self.case) if mixed else self.alpha
        kind = "cos" if self.case == CaseKind.PEC_PMC else "sin"
        return [block_det(m, angle, kind) for m in range(2, self.n_max + 1)]

    @property
    def order_lower_bound(self):
        """The largest n0 with trivial nullspace at every order n <= n0."""
        return next((d.n - 1 for d in self.per_order if d.nullspace_dim), self.n_max)

    @property
    def at_nmax(self):
        """Every order up to n_max was trivial."""
        return self.order_lower_bound == self.n_max

    @property
    def strict_excess(self):
        """The assembled bound strictly exceeds the theorem bound."""
        return self.order_lower_bound > self.theorem_bound

    def to_json(self):
        """The report as the JSON text json.dumps writes of it, in one pass:
        each block determinant is formatted once and each order joins its
        prefix of them.  json would write a non-finite value as NaN or
        Infinity, which is not JSON: ValueError."""
        items = [_json_pair(z) for z in self.block_dets]
        orders = ", ".join(
            f'{{"n": {d.n}, "nullspace_dim": {d.nullspace_dim}, "det_A": '
            f'{_json_pair(d.det_A_closed)}, "det_B": {_json_pair(d.det_B_closed)}, '
            '"block_dets": [' + ", ".join(items[:d.n - 1]) + "]}"
            for d in self.per_order)
        rational = "[%d, %d]" % self.alpha.rational if self.alpha.rational else "null"
        bound = '"gte_nmax"' if self.at_nmax else self.order_lower_bound
        theorem = ('"infinite"' if self.theorem_bound == INFINITE
                   else int(self.theorem_bound))
        return (f'{{"alpha": {{"value": {self.alpha.value!r}, "rational": {rational}}}, '
                f'"case": "{self.case.value}", "per_order": [{orders}], '
                f'"order_lower_bound": {bound}, "theorem_bound": {theorem}}}')

    def to_json_dict(self):
        import json   # only here: import edgewave loads no json
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data):
        """The report of a to_json_dict, its block determinants and bounds
        derived: ValueError unless the orders are 1..n_max, n_max <=
        MAX_ORDER, each order's nullity is an int in 0..2(2n+1) and it has
        head determinants exactly for the impedance pairings, and
        to_json_dict of the report gives data back.  data is read from
        outside the program, so a missing key or a value of the wrong type
        is a ValueError too."""
        try:
            rational = data["alpha"]["rational"]
            alpha = Angle(data["alpha"]["value"], tuple(rational) if rational else None)
            case = CaseKind(data["case"])
            per = [OrderDiagnostics(e["n"], e["nullspace_dim"], *(
                None if e[key] is None else complex(*e[key])
                for key in ("det_A", "det_B"))) for e in data["per_order"]]
            heads = {case != CaseKind.PEC_PMC}
            if not 0 < len(per) <= MAX_ORDER or any(
                    d.n != n or type(d.nullspace_dim) is not int
                    or not 0 <= d.nullspace_dim <= 2 * (2 * n + 1)
                    or {d.det_A_closed is not None, d.det_B_closed is not None} != heads
                    for n, d in enumerate(per, 1)):
                raise ValueError("the orders hold facts no report can hold")
            report = cls(alpha, case, per, theorem_bound(alpha, case, len(per)))
            contradicts = report.to_json_dict() != data
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"not a vanishing report: {exc!r}") from exc
        if contradicts:
            raise ValueError("the report contradicts itself")
        return report

    def render(self):
        lines = [f"alpha = {self.alpha}   case = {self.case.value}",
                 f"{'n':>3} {'null dim':>9} {'|det A|':>12} {'|det B|':>12} "
                 f"{'min |block det|':>16}"]
        lows = ["-"] + [f"{low:.3e}" for low in itertools.accumulate(
            map(abs, self.block_dets), min)]
        for d in self.per_order:
            da = "-" if d.det_A_closed is None else f"{abs(d.det_A_closed):.3e}"
            db = "-" if d.det_B_closed is None else f"{abs(d.det_B_closed):.3e}"
            lines.append(f"{d.n:>3} {d.nullspace_dim:>9} {da:>12} {db:>12} "
                         f"{lows[d.n - 1]:>16}")
        olb = f">= {self.n_max}" if self.at_nmax else str(self.order_lower_bound)
        tb = (f">= {self.n_max} (irrational)" if self.theorem_bound == INFINITE
              else str(int(self.theorem_bound)))
        lines.append(f"order lower bound (assembled systems): {olb}")
        lines.append(f"guaranteed bound (angle grid):         {tb}")
        if self.strict_excess:
            lines.append("note: assembled bound strictly exceeds the guaranteed "
                         "bound (both are lower bounds; excess flagged, not "
                         "asserted sharp)")
        return "\n".join(lines)


def theorem_bound(alpha, case, n_max):
    """Largest N for which the angle avoids the case's exclusion grid.

    Returns INFINITE for angles without a rational tag; n_max means no grid
    hit up to n_max (read: ">= n_max").
    """
    _require_pmc_range(alpha, case)
    if alpha.rational is None:
        return INFINITE
    _, grid, first_order_den = _PAIRINGS[case]
    if alpha.rational[1] == first_order_den:
        return 0
    return grid_exclusion_order(alpha, grid, n_max)


def vanishing_order(config, n_max, tol=1e-9):
    """Per-order nullspace analysis for n = 1..n_max plus the grid bound.

    Each order is analyzed independently, exactly as the induction does (the
    hypothesis that all lower orders vanish is structural, so no cross-order
    rows appear).  The report's order_lower_bound must be at least min(grid
    bound, n_max); one that falls below it contradicts itself and raises
    BoundInvariantError instead.

    The systems of all orders are filled in one pass (_systems), which
    refuses an |eta1/eta2| outside ETA_RATIO_WINDOW with ValueError.  The
    closed head-block determinants of every order are evaluated next, before
    any rank is decided, so one that overflows a float raises ValueError
    even where a lower order's rank is ambiguous.  One nullspace_dim call
    then decides all orders.
    """
    if not 1 <= n_max <= MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_ORDER}, got {n_max}")
    case, eff = effective_config(config)
    systems = _systems(_layout(tuple(range(1, n_max + 1)), _assembled_case(case)), eff)
    heads = [(None, None) if case == CaseKind.PEC_PMC else _closed_dets(n, eff)
             for n in range(1, n_max + 1)]
    per = [OrderDiagnostics(system.n, dim, *heads[system.n - 1])
           for system, dim in zip(systems, nullspace_dim(systems, tol=tol))]
    report = VanishReport(config.alpha, case, per, theorem_bound(config.alpha, case, n_max))
    bound, guaranteed = report.order_lower_bound, min(report.theorem_bound, n_max)
    if bound < guaranteed:
        raise BoundInvariantError(
            f"assembled bound {bound} is below min(grid bound, n_max) = "
            f"{guaranteed}: nullspace dimension {per[bound].nullspace_dim} at "
            f"order {bound + 1}", bound, guaranteed)
    return report
