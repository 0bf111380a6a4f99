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
system at the doubled angle given by the four-branch table; that reduction
lives in effective_config alone, and the assembler, the closed head-block
determinants, the induction driver and the collocation oracle all read it.

A chain entry at column (a, m) is ik c e^{i m phase}, at (b, m) eta c
e^{i m phase}, with c a constant of (n, mu, m) and phase 0 on face 1 and
alpha*pi on face 2.  A PEC/PMC entry is c e^{i m phase}, and the six edge
rows have 17 structurally nonzero entries (_edge_values).  _entry_values
computes all of them, for one order or for many.

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
the union of the two blocks'.

A layout maps every entry of a run of orders to its flat position in its
order's parity blocks (class, row slot, column slot).  It is built in one
pass, vectorized over the orders, and cached per (orders, pairing).  Its
builder raises ValueError naming any row with entries in both classes.  An
order's ConstraintSystem holds its unit rows in parity blocks of its own,
plus each row's norm; the dense rows are derived on demand.  _systems
computes the entry values and row norms of a run of orders in one pass and
yields their systems one order at a time.  vanishing_order takes every
order of a report from it and assemble_order_system one order, so both
decide on the same blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional, Union

import numpy as np

from .angles import Angle, AngleError, grid_exclusion_order, sincos_pi
from .corner import EdgeCornerConfig, ImpedanceKind, ImpedanceSpec
from .swe import MAX_LMAX, _norm_constants, norm_constant

INFINITE = math.inf
MAX_ORDER = MAX_LMAX   # an order-n system reads the degree-n modes


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
    """Classify a config's boundary pairing; PEC-PEC/PMC-PMC are rejected,
    and so is the flat angle, which has no edge."""
    if config.alpha.value == 1.0:
        raise AngleError("the flat angle alpha = 1 has no edge-corner")
    kinds = (config.bc1.kind, config.bc2.kind)
    for case, (faces, _, _) in _PAIRINGS.items():
        if faces == kinds:
            return case
    raise UnsupportedPairingError(
        f"unsupported boundary pairing ({kinds[0].name}, {kinds[1].name})")


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
    """Labeled linear system over the order-n unknowns, held as its rows
    scaled to unit 2-norm and split by parity class (zero rows pad the
    shorter block), and each row's 2-norm in provenance order; rows rebuilds
    the dense rows from the two."""

    n: int
    case: CaseKind
    alpha: Angle                      # angle the rows were assembled at
    blocks: np.ndarray                # complex, shape (2, height, 2n+1)
    norms: np.ndarray                 # float, shape (nrows,)

    @property
    def provenance(self):
        return list(_tags(self.n, self.case))

    @property
    def rows(self):
        """Dense rows, complex of shape (nrows, 2(2n+1)), in provenance
        order and column_labels order."""
        layout = _layout((self.n,), self.case)
        rows = np.zeros((self.norms.size, 2 * (2 * self.n + 1)), dtype=complex)
        rows[layout.row, layout.col] = (self.blocks.reshape(-1)[layout.pos]
                                        * self.norms[layout.row])
        return rows

    @property
    def columns(self):
        return column_labels(self.n)

    @property
    def column_index(self):
        return {c: i for i, c in enumerate(self.columns)}

    @property
    def block_A(self):   # det ~ sin^2
        return self._head_block(("matching-x", "matching-y", "face1-chain-e2 mu=0"),
                                "a", ("b", 0))

    @property
    def block_B(self):   # det ~ sin^2 cos^2
        return self._head_block(("face2-edge-x", "face2-edge-y", "matching-z"),
                                "b", ("a", 0))

    def _head_block(self, names, fam, third):
        """3x3 head block cut from the rows tagged `names`, on the combinations
        (fam^1 + fam^-1, fam^1 - fam^-1, third) of the unknowns; None for
        pec-pmc, which has no head blocks."""
        if self.case == CaseKind.PEC_PMC:
            return None
        ix, rows, tags = self.column_index, self.rows, self.provenance
        block = []
        for name in names:
            row = rows[tags.index(name)]
            plus, minus = row[ix[(fam, 1)]], row[ix[(fam, -1)]]
            block.append([(plus + minus) / 2, (plus - minus) / 2, row[ix[third]]])
        return np.array(block)


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
    it.  The factor is 0 (ik) on an a-column and 1 + face (the face's eta) on
    a b-column; turn = face * m."""
    k, r, f, a, m, v, sign = (np.concatenate(x) for x in zip(
        *(np.broadcast_arrays(*map(np.atleast_1d, t)) for t in terms)))
    pair = m > 0
    k, r, f, a = (np.concatenate([x, x[pair]]) for x in (k, r, f, a))
    m, v = np.concatenate([m, -m[pair]]), np.concatenate([v, (sign * v)[pair]])
    cols = np.where(m == 0, a, 4 * np.abs(m) - 2 + 2 * ~a + (m < 0))
    return k, r, cols, np.where(a, 0, 1 + f), f * m, v


def _chain_entries(orders):
    """Entries of both faces' order-n recursive chains at each n of orders,
    numbered after the six edge rows; a-entries scale with ik, b-entries with
    the face's eta."""
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
    """The six edge rows at each n of orders; factor 3 + j is edge value j."""
    count = len(_EDGE_ENTRIES[0])
    k = np.repeat(np.arange(orders.size), count)
    r, cols, j = (np.tile(x, orders.size) for x in (*_EDGE_ENTRIES, np.arange(count)))
    return k, r, cols, 3 + j, np.zeros_like(k), np.ones(k.size)


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
    the m = 1 and m = 0 edge terms (see _radial_weights), scalars or arrays
    over orders.
    """
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
    """Closed (det A, det B) of the order-n head blocks assembled at the
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
    raise _overflow_error(eff)


def _overflow_error(eff):
    """The refusal of a k or eta too large for the rows of eff in floats."""
    return ValueError(f"k = {eff.k!r} with eta = {eff.bc1.eta0!r}, "
                      f"{eff.bc2.eta0!r} overflows the boundary system")


def _head_block_config(config):
    case, eff = effective_config(config)
    if case == CaseKind.PEC_PMC:
        raise UnsupportedPairingError("pec-pmc systems have no head blocks")
    return eff


def closed_det_A(n, config):
    """Closed form of det(block A) of assemble_order_system(n, config)."""
    return _closed_dets(n, _head_block_config(config))[0]


def closed_det_B(n, config):
    """Closed form of det(block B) of assemble_order_system(n, config)."""
    return _closed_dets(n, _head_block_config(config))[1]


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
    """
    _require_pmc_range(alpha, case)
    a = alpha.value
    if a == 1:
        raise ValueError(f"angle {a} out of range")
    shift, sign = ((0, 1), (1, -1), (-1, 1), (2, -1))[int(2 * a)]
    frac = None
    if alpha.rational is not None:
        fr = 2 * (shift + sign * Fraction(*alpha.rational))
        frac = (fr.numerator, fr.denominator)
    return Angle(2 * (shift + sign * a), frac)


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

    Entry i has the value const * F[at, factor] * e^{i turn alpha' pi}, F the
    factor table of _entry_values and at the index of the entry's order in n.
    Entries are grouped by row, starts holding each row's first; rows are
    numbered across the orders.  Entry i sits at (row, col) of the rows and
    at flat index pos of its order's parity blocks.  parts holds, per order,
    (n, its entry slice, its row slice, its block shape (2, height, 2n+1)).
    """
    case: CaseKind
    n: np.ndarray
    at: np.ndarray
    const: np.ndarray
    factor: np.ndarray
    turn: np.ndarray
    row: np.ndarray
    col: np.ndarray
    pos: np.ndarray
    starts: np.ndarray
    parts: tuple


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
    classes raises ValueError naming its tag."""
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
    pos = (row_class[grow] * height[k] + row_slot[grow]) * (2 * orders[k] + 1) \
        + col_slot
    entry_cut = np.searchsorted(k, np.arange(orders.size + 1)).tolist()
    row_cut = np.append(first_row, row_class.size).tolist()
    parts = tuple((n, slice(*entry_cut[j:j + 2]), slice(*row_cut[j:j + 2]),
                   (2, int(height[j]), 2 * n + 1))
                  for j, n in enumerate(orders.tolist()))
    return _Layout(case, *_read_only(orders, k, const, factor, turn, grow, col, pos,
                                     starts), parts)


@lru_cache(maxsize=None)
def _layout(orders, case):
    """Layout of the rows of case, imp-imp or pec-pmc, at the orders (a tuple)."""
    return _build_layout(np.array(orders), case)


def _entry_values(layout, eff):
    """Value of each entry of layout at eff, the config its rows are
    assembled at.  The factor table F has one row per order: ik, eta1, eta2
    and then the edge values for imp-imp, all ones for pec-pmc."""
    if layout.case == CaseKind.PEC_PMC:
        table = np.ones((layout.n.size, 3))
    else:
        eta1, eta2, k = eff.bc1.eta0, eff.bc2.eta0, eff.k
        table = np.empty((layout.n.size, 3 + len(_EDGE_ENTRIES[0])), dtype=complex)
        table[:, :3] = 1j * k, eta1, eta2
        table[:, 3:] = np.transpose(_edge_values(
            *sincos_pi(eff.alpha.value), *_radial_weights(layout.n), eta1, eta2, k))
    phase = eff.alpha.value * math.pi
    return (layout.const * table[layout.at, layout.factor]
            * np.exp(1j * phase * layout.turn))


def assemble_order_system(n, config):
    """Full order-n constraint system for the configured boundary pairing,
    filled as one order of a report is (_systems); a k or eta too large for
    the system in floats raises ValueError."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {n}")
    source_case, eff = effective_config(config)
    return next(_systems(_layout((n,), _assembled_case(source_case)), eff))


def _systems(layout, eff):
    """The ConstraintSystem of each order of layout, in turn, assembled at
    eff.  The entry values and row norms of all orders come from one pass;
    each order's unit rows are then scattered into blocks of its own.

    Before the first system, a k or eta whose entry values, row norms or
    head-block determinants (_closed_dets, largest at the highest order)
    overflow a float raises ValueError."""
    try:
        with np.errstate(over="raise"):
            values = _entry_values(layout, eff)
            norms = np.sqrt(np.add.reduceat(values.real ** 2 + values.imag ** 2,
                                            layout.starts))
    except FloatingPointError:
        raise _overflow_error(eff) from None
    if layout.case == CaseKind.IMP_IMP:
        _closed_dets(int(layout.n[-1]), eff)
    values /= np.where(norms > 0.0, norms, 1.0)[layout.row]
    for n, entries, rows, shape in layout.parts:
        blocks = np.zeros(shape, dtype=complex)
        blocks.reshape(-1)[layout.pos[entries]] = values[entries]
        yield ConstraintSystem(n, layout.case, eff.alpha, blocks, norms[rows])


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
    """Unit rows split by parity class, stacked (classes, rows, columns),
    and each class's column mask.

    A ConstraintSystem holds its two blocks already.  A bare matrix is one
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

    system is a ConstraintSystem or a bare matrix.  The singular values are
    those of the rows scaled to unit length, for a ConstraintSystem taken on
    its two parity blocks in one batched SVD.  Relative singular values
    inside (tol/10, tol*10) are neither clearly zero nor clearly nonzero;
    these raise RankAmbiguityError instead of guessing.
    """
    blocks, _ = _parity_blocks(system)
    return sum(_dim_from_values(system, np.linalg.svd(blocks, compute_uv=False),
                                blocks.shape[-1], tol))


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
    """Orthonormal basis of the nullspace, columns of shape (ncols, dim).
    Useful for building fields that satisfy a degenerate order-n system.

    Each null vector lives on the columns of one parity class: class 0's
    vectors come first."""
    blocks, classes = _parity_blocks(system)
    _, s, vh = np.linalg.svd(blocks)
    width = blocks.shape[-1]
    dims = _dim_from_values(system, s, width, tol)
    basis = np.zeros((classes.shape[1], sum(dims)), dtype=complex)
    for cols, v, dim, end in zip(classes, vh, dims, np.cumsum(dims)):
        basis[cols, end - dim:end] = v[width - dim:].conj().T
    return basis


# ---------------------------------------------------------------------------
# induction driver and report
# ---------------------------------------------------------------------------

@dataclass
class OrderDiagnostics:
    n: int
    nullspace_dim: int
    det_A_closed: Optional[complex] = None
    det_B_closed: Optional[complex] = None
    block_dets: List[complex] = field(default_factory=list)  # m = 2..n


@dataclass
class VanishReport:
    alpha: Angle
    case: CaseKind
    per_order: List[OrderDiagnostics]
    order_lower_bound: int
    theorem_bound: Union[int, float]   # int or INFINITE

    @property
    def n_max(self):
        return self.per_order[-1].n if self.per_order else 0

    @property
    def at_nmax(self):
        """Every order up to n_max was trivial."""
        return self.order_lower_bound == self.n_max

    @property
    def strict_excess(self):
        """The assembled bound strictly exceeds the theorem bound."""
        return self.order_lower_bound > self.theorem_bound

    def to_json_dict(self):
        per = []
        for d in self.per_order:
            per.append({
                "n": d.n,
                "nullspace_dim": d.nullspace_dim,
                "det_A": None if d.det_A_closed is None
                else [d.det_A_closed.real, d.det_A_closed.imag],
                "det_B": None if d.det_B_closed is None
                else [d.det_B_closed.real, d.det_B_closed.imag],
                "block_dets": [[z.real, z.imag] for z in d.block_dets],
            })
        return {
            "alpha": {"value": self.alpha.value,
                      "rational": list(self.alpha.rational)
                      if self.alpha.rational else None},
            "case": self.case.value,
            "per_order": per,
            "order_lower_bound": "gte_nmax" if self.at_nmax
            else self.order_lower_bound,
            "theorem_bound": "infinite" if self.theorem_bound == INFINITE
            else int(self.theorem_bound),
        }

    @classmethod
    def from_json_dict(cls, data):
        alpha = Angle(value=data["alpha"]["value"],
                      rational=tuple(data["alpha"]["rational"])
                      if data["alpha"]["rational"] else None)
        per = [OrderDiagnostics(
            n=e["n"], nullspace_dim=e["nullspace_dim"],
            det_A_closed=None if e["det_A"] is None else complex(*e["det_A"]),
            det_B_closed=None if e["det_B"] is None else complex(*e["det_B"]),
            block_dets=[complex(re, im) for re, im in e.get("block_dets", [])])
            for e in data["per_order"]]
        bound = data["order_lower_bound"]
        bound = (per[-1].n if per else 0) if bound == "gte_nmax" else int(bound)
        theorem = INFINITE if data["theorem_bound"] == "infinite" \
            else int(data["theorem_bound"])
        return cls(alpha=alpha, case=CaseKind(data["case"]), per_order=per,
                   order_lower_bound=bound, theorem_bound=theorem)

    def render(self):
        lines = [f"alpha = {self.alpha}   case = {self.case.value}",
                 f"{'n':>3} {'null dim':>9} {'|det A|':>12} {'|det B|':>12} "
                 f"{'min |block det|':>16}"]
        for d in self.per_order:
            da = "-" if d.det_A_closed is None else f"{abs(d.det_A_closed):.3e}"
            db = "-" if d.det_B_closed is None else f"{abs(d.det_B_closed):.3e}"
            bd = "-" if not d.block_dets \
                else f"{min(abs(z) for z in d.block_dets):.3e}"
            lines.append(f"{d.n:>3} {d.nullspace_dim:>9} {da:>12} {db:>12} {bd:>16}")
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
    rows appear).  order_lower_bound is the largest n0 with trivial nullspace
    at every order n <= n0.  It must be at least min(grid bound, n_max);
    a report that falls below it contradicts itself and raises
    BoundInvariantError instead.

    The systems of all orders are filled in one pass (_systems), and each
    is decided by nullspace_dim.
    """
    if not 1 <= n_max <= MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{MAX_ORDER}, got {n_max}")
    case, eff = effective_config(config)
    pecpmc = case == CaseKind.PEC_PMC
    dets = [block_det(m, eff.alpha, "cos" if pecpmc else "sin")
            for m in range(2, n_max + 1)]
    per = []
    assembled = _assembled_case(case)
    for system in _systems(_layout(tuple(range(1, n_max + 1)), assembled), eff):
        dim, n = nullspace_dim(system, tol=tol), system.n
        head = (None, None) if pecpmc else _closed_dets(n, eff)
        per.append(OrderDiagnostics(n, dim, *head, dets[:n - 1]))
    bound = next((d.n - 1 for d in per if d.nullspace_dim > 0), n_max)
    grid = theorem_bound(config.alpha, case, n_max)
    guaranteed = min(grid, n_max)
    if bound < guaranteed:
        raise BoundInvariantError(
            f"assembled bound {bound} is below min(grid bound, n_max) = "
            f"{guaranteed}: nullspace dimension {per[bound].nullspace_dim} at "
            f"order {bound + 1}", bound, guaranteed)
    return VanishReport(alpha=config.alpha, case=case, per_order=per,
                        order_lower_bound=bound, theorem_bound=grid)
