"""Mean-value discrete p-Laplacian, its Jacobian, energy and norms.

The vector space of an instance is R^n over its n interior nodes, numbered
row-major as a lattice field read at domain.interior_mask, with the
h^2-weighted pairing.  Every method returns interior vectors and accepts
either an interior vector or a (ny, nx) lattice field, whose values off
the interior it ignores (as_vector); lift_free writes an interior vector
back onto the lattice, zero off the interior, for snapshots and plots.

The operator is
    Delta_p^h u(x) = C_h * sum_{y in B_r(x)} |u(y)-u(x)|^(p-2) (u(y)-u(x))
with the mean-value weight C_h = h^2 / (D_{2,p} pi r^(p+2)), which ties
p, h and r together, so an instance builds its stencil and C_h from one
(domain, r, p).  Reads outside the domain (and at non-interior nodes) are
0.  The discrete Dirichlet energy is defined as the symmetrized double sum
whose exact gradient under the h^2-weighted pairing is -Delta_p^h, which
makes the discrete Euler identity hold to roundoff.

The ball is symmetric, so each stencil edge {x, y} is read once, from
the end that sees the other at a half offset: dy > 0, or dy = 0 and
dx > 0, H = K/2 of the K offsets.  A neighbour table of shape (H, n) holds
every node's neighbour at each half offset; a neighbour that is not an
interior node reads the appended zero slot n.  One gather of the interior
vector extended by that zero gives edge_differences, an (H+1, n) array
whose row k >= 1 is u(y) - u(x) at half offset k.  A node's edges to
non-interior nodes at the negated half offsets all read -u(x); row 0
holds that value once and a cached per-node count cminus weighs it.
- The operator sums power_map of the rows over each node's half edges,
  subtracts it at their far ends (one np.bincount over the table, which
  drops the zero slot), and adds cminus power_map(-u(x)).
- The energy is the sum of |u(y)-u(x)|^p over the rows plus cminus
  |u(x)|^p, divided by p: the double sum over ordered pairs, which also
  runs over the non-interior nodes (value 0), counts every edge twice and
  is divided by 2p, so the half sum is that double sum halved.
- The Jacobian computes each edge weight once and writes it to both CSR
  slots of its edge; the diagonal is the weights summed over the half
  edges, their far ends and cminus.  The CSR pattern is fixed, shared and
  read-only, with the columns of each row sorted.
The table, the counts, the CSR pattern and the aggregates (the lattice
blocks of the newton module's two_level) are built on first use, not in
__init__, so that building an instance stays cheap.

One constant, EPSILON, smooths every kernel derivative near zero, read at
call time: jacobian_matrix's edge weights, duality_map_H_prime (the
diagonal of the prox and polish systems) and the newton module's
primal-dual flux step.  So each smoothed derivative depends only on the
values of its own edge or node, as the kernels do.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse

from .functional import FunctionalPair, power_map
from .grid import GridDomain, build_stencil
from . import newton

EPSILON = 1e-9  # the smoothing of every kernel derivative near zero
AGGREGATE_SIDE = 1.5  # the side of an aggregate block, in stencil margins


def mean_value_constant(p: float) -> float:
    """The dimensional constant D_{2,p} of the mean-value operator.

    Defined through the disk integral of |e1 . w|^p,
        D_{2,p} = (1/(2 pi)) * int_{B_1(0)} |w_1|^p dw
                = (2 / (pi (p+2))) * int_0^{pi/2} cos(t)^p dt
                = Gamma((p+1)/2) / (sqrt(pi) (p+2) Gamma(p/2+1)),
    the ratio of the Gammas taken by their logarithms from p = 340 on,
    as Gamma overflows past p = 341.  For p = 2 this is 1/8, which makes
    the operator consistent with the classical Laplacian.
    """
    a, b = (p + 1.0) / 2.0, p / 2.0 + 1.0
    ratio = math.gamma(a) / math.gamma(b) if p < 340.0 \
        else math.exp(math.lgamma(a) - math.lgamma(b))
    return ratio / (math.sqrt(math.pi) * (p + 2.0))


def _smoothed_slope(t: np.ndarray, p: float, scale: float) -> np.ndarray:
    """scale (t^2 + EPSILON^2)^((p-2)/2), computed in place on the array t:
    the derivative of power_map times scale/(p-1), smoothed by the one
    constant EPSILON."""
    t *= t
    t += EPSILON * EPSILON
    t **= (p - 2.0) / 2.0
    t *= scale
    return t


class PLaplaceInstance(FunctionalPair):
    """FunctionalPair for the grid p-Laplacian on the interior vectors.

    J is the discrete p-Dirichlet energy, H(u) = (1/p) ||u||_p^p, and the
    pairing carries the volume weight h^2 so that discrete quantities
    approximate their continuum counterparts.  d2p and weight are the
    D_{2,p} and C_h of the module docstring.  The instance is immutable
    and shareable across threads.
    """

    def __init__(self, domain: GridDomain, r: float, p: float) -> None:
        if not 1 < p < math.inf:
            raise ValueError("p must be > 1 and finite")
        self.domain = domain
        self.stencil = build_stencil(domain, r)  # it rejects r < h
        self.p = float(p)
        self._mask = domain.interior_mask
        self._h2 = domain.h ** 2
        self.d2p = mean_value_constant(self.p)
        self.weight = self._h2 / (self.d2p * math.pi * r ** (self.p + 2))

    # --- the vector space -----------------------------------------------------

    @property
    def n_interior(self) -> int:
        return self.domain.n_interior

    def as_vector(self, u) -> np.ndarray:
        """u as an interior vector: a (ny, nx) lattice field is read at the
        interior nodes, a vector is taken as it is."""
        u = np.asarray(u, dtype=float)
        return u[self._mask] if u.ndim == 2 else u

    def lift_free(self, x) -> np.ndarray:
        """The (ny, nx) lattice field of the interior vector x, 0 elsewhere."""
        out = np.zeros((self.domain.ny, self.domain.nx))
        out[self._mask] = x
        return out

    @cached_property
    def _half_offsets(self) -> np.ndarray:
        """The offsets (dy, dx) with dy > 0, or dy = 0 and dx > 0."""
        dy, dx = self.stencil.offsets.T
        return self.stencil.offsets[(dy > 0) | ((dy == 0) & (dx > 0))]

    def _neighbours(self, offsets: np.ndarray, dtype=np.intp) -> np.ndarray:
        """(len(offsets), n) neighbour numbers, n for a non-interior one."""
        ny, nx, n = self.domain.ny, self.domain.nx, self.n_interior
        m = self.stencil.margin
        number = np.full((ny + 2 * m, nx + 2 * m), n, dtype=dtype)
        number[m:m + ny, m:m + nx][self._mask] = np.arange(n)
        dy, dx = offsets.T
        jj, ii = np.nonzero(self._mask)
        return number[m + jj + dy[:, None], m + ii + dx[:, None]]

    @cached_property
    def _half_table(self) -> np.ndarray:
        """(H, n) neighbour numbers at the half offsets."""
        return self._neighbours(self._half_offsets)

    @cached_property
    def _cminus(self) -> np.ndarray:
        """Per interior node, the number of its non-interior neighbours at
        the negated half offsets: H less the number of interior nodes that
        reach it at a half offset, since it appears at most once in each
        row of the half table."""
        n, T = self.n_interior, self._half_table
        reached = np.bincount(T.ravel(), minlength=n + 1)[:n]
        return (len(T) - reached).astype(float)

    @cached_property
    def aggregates(self) -> np.ndarray:
        """Per interior node, the number of its aggregate, the coarse space
        of the newton module's two_level: the lattice is cut into square
        blocks of side ceil(AGGREGATE_SIDE margin) nodes from node (0, 0),
        and each block's interior nodes form one aggregate, numbered in
        block order; read-only."""
        side = math.ceil(AGGREGATE_SIDE * self.stencil.margin)
        jj, ii = np.nonzero(self._mask)
        block = jj // side * self.domain.nx + ii // side
        number = np.unique(block, return_inverse=True)[1]
        number.flags.writeable = False
        return number

    @cached_property
    def _csr_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(take, indices, indptr): CSR data is an (H+1, n) array raveled
        and read at take, whose row 0 holds the diagonal and row k the
        off-diagonal weight of half edge k; indices and indptr are shared,
        read-only.  Each row's entries follow the lexsorted offsets of its
        node, so their columns come sorted."""
        n, half = self.n_interior, self._half_offsets
        H = len(half)
        offsets = np.concatenate((-half, [(0, 0)], half))
        source = np.r_[1:H + 1, 0, 1:H + 1]  # row of the (H+1, n) array
        at_far = np.arange(2 * H + 1) < H  # read at the neighbour's column
        order = np.lexsort(offsets.T[::-1])
        table = self._neighbours(offsets[order], np.int32)
        kept = (table != n).T
        indices = table.T[kept]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
        read = np.where(at_far[order, None], table, np.arange(n))
        del table  # before the int64 arrays below, to lower peak memory
        read += source[order, None] * n
        take = read.T[kept]
        indices.flags.writeable = indptr.flags.writeable = False
        return take, indices, indptr

    @cached_property
    def _diagonal_slots(self) -> np.ndarray:
        """The CSR data slot of each row's diagonal entry, in row order: the
        entries of take that read row 0 of the (H+1, n) array."""
        return np.flatnonzero(self._csr_slots[0] < self.n_interior)

    def edge_differences(self, u) -> np.ndarray:
        """u(y) - u(x) of every stencil edge, as a fresh (H+1, n) array with
        one column per interior node x: row k >= 1 for half offset k, and
        row 0 = -u(x) for x's non-interior neighbours at the negated half
        offsets, which edge_sum counts cminus(x) times."""
        x = self.as_vector(u)
        T = self._half_table
        d = np.empty((len(T) + 1, self.n_interior))
        np.negative(x, out=d[0])
        ext = np.zeros(self.n_interior + 1)
        ext[:-1] = x
        np.take(ext, T, out=d[1:], mode="clip")  # "clip": no buffered copy
        d[1:] -= x
        return d

    def edge_sum(self, e: np.ndarray, sign: float = -1.0) -> np.ndarray:
        """Per interior node x, the sum of the edge field e, laid out as
        edge_differences, over every edge of x's stencil: e[k, x] on x's
        half edges, sign e[k, y] on the half edge of the node y that ends
        at x, and cminus(x) e[0, x].  sign is -1 for a field odd in the
        edge's direction (a flux), +1 for an even one (a weight)."""
        n = self.n_interior
        acc = np.sum(e[1:], axis=0)
        far = np.bincount(self._half_table.ravel(), e[1:].ravel(),
                          minlength=n + 1)[:n]
        if sign > 0:
            acc += far
        else:
            acc -= far
        acc += self._cminus * e[0]
        return acc

    # --- operator, energy, Jacobian ------------------------------------------

    def neg_plaplacian(self, u) -> np.ndarray:
        """-Delta_p^h u (= subgrad of J)."""
        acc = self.edge_sum(power_map(self.edge_differences(u), self.p))
        return -self.weight * acc

    def dirichlet_energy(self, u) -> float:
        """J_h(u) = (C_h h^2 / p) * the sum of |u(y) - u(x)|^p over the
        undirected stencil edges."""
        a = self.edge_differences(u)
        np.abs(a, out=a)
        a **= self.p
        total = float(np.sum(a[1:]) + self._cminus @ a[0])
        return self.weight * self._h2 * total / self.p

    def jacobian_matrix(self, u, slopes=None, shift=None, scale=1.0):
        """Sparse symmetric PSD Jacobian of -Delta_p^h at u, whose edge
        weights are the kernel slopes phi'(u(y) - u(x)), smoothed by
        EPSILON.  slopes, an (H+1, n) array laid out as
        edge_differences, replaces them: the primal-dual Newton step of the
        newton module passes 1/psi'(sigma) of its edge flux sigma, which is
        phi'(d) at sigma = phi(d).

        With shift, an interior vector, and scale the matrix is
        diag(shift) + scale J, the prox solve's Newton matrix, bit for bit
        the sum scipy.sparse.diags(shift) + scale * J: J's data is scaled
        and shift added at the diagonal slots of the shared pattern, with
        no second sparse matrix formed."""
        n = self.n_interior
        if slopes is None:
            w = _smoothed_slope(self.edge_differences(u), self.p,
                                self.weight * (self.p - 1.0))
        else:
            w = self.weight * slopes
        diag = self.edge_sum(w, sign=1.0)
        np.negative(w[1:], out=w[1:])
        w[0] = diag
        take, indices, indptr = self._csr_slots
        data = np.take(w.ravel(), take)
        if scale != 1.0:
            data *= scale
        if shift is not None:
            data[self._diagonal_slots] += shift
        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    # --- FunctionalPair interface ---------------------------------------------

    def energy_J(self, u):
        return self.dirichlet_energy(u)

    def subgrad_J(self, u):
        return self.neg_plaplacian(u)

    def inverse_subgrad_J(self, zeta, settings=None, warm_start=None):
        init = np.zeros(self.n_interior) if warm_start is None \
            else self.as_vector(warm_start)
        return newton.solve_p_poisson(self, self.as_vector(zeta), init,
                                      settings)

    def prox_J(self, u_ref, tau, settings=None, warm_start=None):
        start = None if warm_start is None else self.as_vector(warm_start)
        return newton.solve_prox(self, self.as_vector(u_ref), tau, settings,
                                 start)

    def duality_map_H(self, u):
        return power_map(self.as_vector(u), self.p)

    def norm_H(self, u):
        x = self.as_vector(u)
        return float((self._h2 * np.sum(np.abs(x) ** self.p)) ** (1.0 / self.p))

    def dual_norm_H(self, zeta):
        z = self.as_vector(zeta)
        return float((self._h2 * np.sum(np.abs(z) ** self.q)) ** (1.0 / self.q))

    def pairing(self, zeta, u):
        return float(self._h2 * np.sum(self.as_vector(zeta) * self.as_vector(u)))

    def duality_map_H_prime(self, w):
        """(p-1)(w^2 + EPSILON^2)^((p-2)/2), the derivative of
        duality_map_H smoothed by EPSILON.

        The smoothing keeps Newton's Jacobian nonsingular (p<2: singular
        kernel, p>2: degenerate at flat regions); the residual itself is
        never modified.
        """
        return _smoothed_slope(self.as_vector(w).copy(), self.p, self.p - 1.0)
