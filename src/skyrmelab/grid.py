"""Uniform radial mesh, 4th-order stencil operators for even fields, and radial quadrature.

The axis r = 0 is a coordinate singularity, not a physical boundary: fields
are smooth functions of x in R^5 restricted to a ray, so they extend across
r = 0 with definite parity (v and v_tt even, v_r odd).  The solver
differentiates only even fields, so the stencils are applied with the even
reflection folded in: the rows of nodes 0 and 1 read f(-k dr) = f(k dr) from
node k.  That keeps the centered stencils usable down to j = 0 and, because
the odd Taylor coefficients of an even field vanish, keeps the truncation
error O(dr^4) uniformly up to the axis even in the (4/r) v_r term.

The outer edge has no parity to exploit; the rows of the last two nodes are
one-sided/biased 4th-order closures.  The stencils hold integer numerators
and depend on no dr; the one division by 12 dr^k comes after the product,
which keeps constants differentiating to an exact zero.

D1 and D2 run as one CSR product of a block matrix that stacks them over B
runs of samples (the solver's members), built once per node count and B; the
last 8 node counts stay cached at B = 1 and 2.  The Laplacian kernel below, run
by the stepper and by the checked laplacian5, owns that product, its scales and
the axis rule; even_d_r reads D1 alone, the first N + 1 rows at B = 1.  A step
at N <= 1024 is bound by per-call overhead, which one product keeps small.
"""
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
# private module, the compiled loop behind scipy.sparse's csr_array @ x; tested
# with scipy 1.17
from scipy.sparse._sparsetools import csr_matvec

from .errors import ConfigError, ContractError, DomainError


class Parity(Enum):
    EVEN = 1
    ODD = -1


# 4th-order stencils: (offsets from the evaluation node, integer numerators)
_D1 = ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0))
_D2 = ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0))
# edge closures for node N - 1 (biased) and node N (one-sided)
_D1_EDGE = ((range(-3, 2), (-1.0, 6.0, -18.0, 10.0, 3.0)),
            (range(-4, 1), (3.0, -16.0, 36.0, -48.0, 25.0)))
_D2_EDGE = ((range(-4, 2), (1.0, -6.0, 14.0, -4.0, -15.0, 10.0)),
            (range(-5, 1), (-10.0, 61.0, -156.0, 214.0, -154.0, 45.0)))


_STENCILS = ((_D1, _D1_EDGE), (_D2, _D2_EDGE))
# the edge closures' width: on fewer nodes their columns would fall off the grid
_MIN_NODES = 6


@lru_cache(maxsize=16)  # the last 8 node counts, each with one and with two members
def _stencil_csr(n, members):
    """The block matrix [D1 (x) I; D2 (x) I] on `members` runs of n samples, as the
    CSR arrays (indptr, indices, data) of its integer weights: D1 on each run,
    then D2 on each.  With one member, its first n rows are D1 alone.

    Rows 0 and 1 of each stencil read their mirror columns, its last two rows
    carry the edge closures, and every row stores its terms in stencil order: a
    product sums each row from 0.0 term by term, as a ghost-extended stencil does.
    """
    if n < _MIN_NODES:
        raise ContractError(f"the stencils need at least {_MIN_NODES} samples, got {n}")
    rows, cols, data = [[0]], [], []
    for (offsets, weights), edges in _STENCILS:
        offsets = np.array(offsets, dtype=np.int32)  # int32 indices take half the bytes
        for m in range(members):
            cols += [np.abs(j + offsets) + m * n for j in (0, 1)]
            cols += [np.add.outer(np.arange(2, n - 2, dtype=np.int32) + m * n, offsets)]
            cols += [n - back + m * n + np.array(offs, dtype=np.int32)
                     for back, (offs, _) in zip((2, 1), edges)]
            rows += [np.broadcast_to(len(offsets), n - 2), [len(ws) for _, ws in edges]]
            data += [np.broadcast_to(weights, (n - 2, len(weights)))] + [ws for _, ws in edges]
    # axis=None flattens each piece straight into the result, broadcasts included
    return (np.cumsum(np.concatenate(rows, axis=None), dtype=np.int32),
            np.concatenate(cols, axis=None), np.concatenate(data, axis=None, dtype=float))


@dataclass(frozen=True)
class RadialGrid:
    R: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            operator.index(self.N)
        except TypeError:
            raise ConfigError(f"the node count must be an integer, got {self.N!r}") from None
        if not self.N >= 8:
            raise ConfigError(f"need N >= 8 interior cells, got {self.N}")
        if not (isinstance(self.R, numbers.Real) and self.R > 0):
            raise ConfigError(f"outer radius must be a positive real, got {self.R!r}")
        if not math.isfinite(self.R):
            raise ConfigError(f"outer radius must be finite, got {self.R}")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.R, self.N + 1))

    @property
    def dr(self):
        return self.R / self.N


@dataclass
class FieldSamples:
    values: np.ndarray
    parity: Parity

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.parity is Parity.ODD and self.values.size and self.values[0] != 0.0:
            raise ContractError("odd fields vanish at r = 0")


# Unvalidated kernels on raw samples: NaN and inf propagate, which the solver
# relies on.  d_r and laplacian5 below are the checked public forms.  Each runs
# csr_matvec, the loop `@` runs, without the dispatch that costs more than the
# product at N = 256 (3.5 vs 2.4 us).  It adds into its output, zeroed first so
# that each row sums from 0.0, and the builder refuses too few nodes to index.

def even_d_r(values, g):
    """f_r of an even field's samples (odd, so exactly 0 at the axis): D1 alone, the
    first N + 1 rows of the one-member block, for half the cost of D1 and D2."""
    f_r = np.zeros(values.size)
    csr_matvec(values.size, values.size, *_stencil_csr(values.size, 1), values, f_r)
    f_r /= 12.0 * g.dr
    f_r[0] = 0.0  # the reflected terms cancel up to rounding
    return f_r


def _laplacian5(g, members, acc):
    """(P, laplacian): laplacian(f), f a C-ordered (members, N + 1) array of even
    fields, writes their f_r into P[0], their f_rr into P[1] and f_rr + (4/r) f_r
    into acc, whose axis value is the limit 5 f_rr(0).  Every array and view is
    made here, once per grid and member count, so a call does only arithmetic."""
    P, csr = np.empty((2, members, g.N + 1)), _stencil_csr(g.N + 1, members)
    scale = np.array([12.0 * g.dr, 12.0 * g.dr**2])[:, None, None]
    (f_r, f_rr), r_in, acc_in, acc_axis = P, g.nodes[1:], acc[:, 1:], acc[:, 0]
    f_r_axis, f_r_in, f_rr_in, f_rr_axis = f_r[:, 0], f_r[:, 1:], f_rr[:, 1:], f_rr[:, 0]

    def laplacian(f):
        P.fill(0.0)
        csr_matvec(P.size, f.size, *csr, f, P)  # on the flat samples of f and P
        np.divide(P, scale, out=P)
        f_r_axis.fill(0.0)  # the reflected terms cancel up to rounding
        np.multiply(f_r_in, 4.0, out=acc_in)
        np.add(f_rr_in, np.divide(acc_in, r_in, out=acc_in), out=acc_in)
        np.multiply(f_rr_axis, 5.0, out=acc_axis)

    return P, laplacian


def _checked(f, g):
    values = f.values
    if values.shape != (g.N + 1,):
        raise ContractError(f"field has {values.shape} samples, grid wants {g.N + 1}")
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite field samples")
    return values


def d_r(f, g):
    """4th-order radial derivative of an even field, which is odd."""
    if f.parity is not Parity.EVEN:
        raise ContractError("d_r acts on even fields")
    return FieldSamples(even_d_r(_checked(f, g), g), Parity.ODD)


def laplacian5(f, g):
    """f_rr + (4/r) f_r for even fields; the axis value is the limit 5 f_rr(0)."""
    if f.parity is not Parity.EVEN:
        raise ContractError("the 5D radial Laplacian acts on even fields")
    lap = np.empty((1, g.N + 1))
    _laplacian5(g, 1, lap)[1](_checked(f, g))
    return FieldSamples(lap[0], Parity.EVEN)


def radial_integral(f, g, weight_power=0):
    """Composite Simpson value of the integral of f(r) r^p dr over [0, R].

    f is the array of samples on the N + 1 nodes.  Odd interval counts close
    with a 3/8 panel.  A tail that has not decayed by r = R is integrated as
    it stands: the value covers [0, R] only.
    """
    values = np.asarray(f, dtype=float)
    if values.shape != (g.N + 1,):
        raise ContractError(f"field has {values.shape} samples, grid wants {g.N + 1}")
    return _simpson(values * g.nodes**weight_power if weight_power else values, g.dr)


def _simpson(y, h):
    """Composite Simpson rule on samples y with spacing h; reads y, never writes it."""
    n = y.size - 1
    if n < 3:
        return float(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))
    total = 0.0
    if n % 2 == 1:  # peel a 3/8 panel off the far end
        total += 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[:-3]
        n -= 3
    if n:
        total += h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
    return float(total)
