"""Mean-value discrete p-Laplacian, its Jacobian, energy and norms.

The vector space of an instance is R^n over its n interior nodes, numbered
row-major as a lattice field read at domain.interior_mask, with the
h^2-weighted pairing.  Every method returns interior vectors and accepts
either an interior vector or a (ny, nx) lattice field, whose values off
the interior it ignores (as_vector); lift_free writes an interior vector
back onto the lattice, zero off the interior, for snapshots and plots.

The operator is
    Delta_p^h u(x) = C_h * sum_{y in B_r(x)} |u(y)-u(x)|^(p-2) (u(y)-u(x))
with C_h = h^2 / (D_{2,p} pi r^(p+2)).  Reads outside the domain (and at
non-interior nodes) are 0.  The discrete Dirichlet energy is defined as the
symmetrized double sum whose exact gradient under the h^2-weighted pairing
is -Delta_p^h, which makes the discrete Euler identity hold to roundoff.

The operator, the energy and the Jacobian read the stencil through one
neighbour table of shape (K+1, n), for K stencil offsets.  Row k holds
every node's neighbour at offset k; the node itself sits in a centre row,
at the place of (0, 0) among the lexsorted offsets of build_stencil.  A
neighbour that is not an interior node reads the appended zero slot n.
One gather of the interior vector extended by that zero gives u(y) - u(x)
for every (offset, node) at once:
- the operator sums power_map of it over the offsets (the centre adds 0);
- the energy sums |u(y)-u(x)|^p and adds c(x)|u(x)|^p, for the cached
  count c(x) of x's non-interior neighbours: the double sum also runs over
  the non-interior nodes, whose values are 0, so it counts each such edge
  twice, once from each end;
- the Jacobian writes its weights into CSR data on a fixed pattern read
  from the transposed table, whose columns come sorted in each row; the
  centre slot is the diagonal and zero-slot entries are left out.
The table and the CSR pattern are built on first use, not in __init__, so
that building an instance stays cheap.

One rule, smoothing(x) = epsilon max(1, max|x|), smooths every kernel
derivative near zero; only the vector x differs.  duality_map_H_prime (the
diagonal of the prox and polish systems) reads its argument w,
jacobian_matrix its point u, and the newton module's primal-dual step the
iterate of its flux.  Reading one vector for all would change Newton
iterates.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .functional import FunctionalPair, power_map
from .grid import GridDomain, Stencil
from . import newton


def _smoothed_slope(t: np.ndarray, p: float, epsilon: float,
                    scale: float) -> np.ndarray:
    """scale (t^2 + epsilon^2)^((p-2)/2), computed in place on the array t:
    the smoothed derivative of power_map times scale/(p-1)."""
    t *= t
    t += epsilon * epsilon
    t **= (p - 2.0) / 2.0
    t *= scale
    return t


class PLaplaceInstance(FunctionalPair):
    """FunctionalPair for the grid p-Laplacian on the interior vectors.

    J is the discrete p-Dirichlet energy, H(u) = (1/p) ||u||_p^p, and the
    pairing carries the volume weight h^2 so that discrete quantities
    approximate their continuum counterparts.  The instance is immutable
    and shareable across threads.
    """

    def __init__(self, domain: GridDomain, stencil: Stencil, p: float,
                 epsilon: float = 1e-9) -> None:
        if p <= 1:
            raise ValueError("p must be > 1")
        self.domain = domain
        self.stencil = stencil
        self.p = float(p)
        self.epsilon = float(epsilon)
        self._mask = domain.interior_mask
        self._h2 = domain.h ** 2

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
    def _centre(self) -> int:
        """Row of the node itself: the place of (0, 0) in the offsets."""
        dy, dx = self.stencil.offsets.T
        return int(np.count_nonzero((dy < 0) | ((dy == 0) & (dx < 0))))

    @cached_property
    def _table(self) -> np.ndarray:
        """(K+1, n) neighbour numbers, n for a non-interior neighbour."""
        ny, nx, n = self.domain.ny, self.domain.nx, self.n_interior
        m = self.stencil.margin
        number = np.full((ny + 2 * m, nx + 2 * m), n, dtype=np.intp)
        number[m:m + ny, m:m + nx][self._mask] = np.arange(n)
        dy, dx = np.insert(self.stencil.offsets, self._centre, (0, 0), axis=0).T
        jj, ii = np.nonzero(self._mask)
        return number[m + jj + dy[:, None], m + ii + dx[:, None]]

    @cached_property
    def _csr_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(take, indices, indptr): CSR data is the weight table raveled
        and read at take; indices and indptr are shared, read-only."""
        n = self.n_interior
        rows, slots = np.nonzero(self._table.T != n)
        indices = self._table[slots, rows].astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices.flags.writeable = indptr.flags.writeable = False
        return slots * n + rows, indices, indptr

    @cached_property
    def _outside_count(self) -> np.ndarray:
        """Per interior node, the number of its non-interior neighbours."""
        return np.count_nonzero(self._table == self.n_interior,
                                axis=0).astype(float)

    def edge_differences(self, u) -> np.ndarray:
        """u(y) - u(x), one row per table row, one column per interior node:
        a fresh (K+1, n) array, 0 in the centre row."""
        ext = np.zeros(self.n_interior + 1)
        ext[:-1] = self.as_vector(u)
        d = ext[self._table]
        d -= ext[:-1]
        return d

    # --- operator, energy, Jacobian ------------------------------------------

    def neg_plaplacian(self, u) -> np.ndarray:
        """-Delta_p^h u (= subgrad of J)."""
        acc = np.sum(power_map(self.edge_differences(u), self.p), axis=0)
        return -self.stencil.weight * acc

    def dirichlet_energy(self, u) -> float:
        """J_h(u) = (C_h h^2 / (2p)) * sum over directed stencil pairs."""
        x = self.as_vector(u)
        a = self.edge_differences(x)
        np.abs(a, out=a)
        a **= self.p
        total = float(np.sum(a) + self._outside_count @ np.abs(x) ** self.p)
        return self.stencil.weight * self._h2 * total / (2.0 * self.p)

    def smoothing(self, u) -> float:
        """epsilon scaled by max(1, max|u|), the smoothing of the kernel
        derivatives near zero."""
        x = self.as_vector(u)
        return self.epsilon * max(1.0, float(np.max(np.abs(x), initial=0.0)))

    def jacobian_matrix(self, u, slopes=None):
        """Sparse symmetric PSD Jacobian of -Delta_p^h at u, whose edge
        weights are the kernel slopes phi'(u(y) - u(x)), smoothed by
        smoothing(u).  slopes, a (K+1, n) array laid out as
        edge_differences, replaces them: the primal-dual Newton step of the
        newton module passes 1/psi'(sigma) of its edge flux sigma, which is
        phi'(d) at sigma = phi(d)."""
        n, c = self.n_interior, self._centre
        if slopes is None:
            x = self.as_vector(u)
            w = _smoothed_slope(self.edge_differences(x), self.p,
                                self.smoothing(x),
                                self.stencil.weight * (self.p - 1.0))
        else:
            w = self.stencil.weight * slopes
        w[c] = 0.0
        diag = np.sum(w, axis=0)
        np.negative(w, out=w)
        w[c] = diag
        take, indices, indptr = self._csr_pattern
        return scipy.sparse.csr_matrix((w.ravel()[take], indices, indptr),
                                       shape=(n, n))

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

    def prox_J(self, u_ref, tau, settings=None):
        return newton.solve_prox(self, self.as_vector(u_ref), tau, settings)

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

    def hess_J_matrix(self, u):
        return self.jacobian_matrix(u)

    def duality_map_H_prime(self, w):
        """(p-1)(w^2 + eps^2)^((p-2)/2), the derivative of duality_map_H
        smoothed by eps = epsilon max(1, max|w|).

        The smoothing keeps Newton's Jacobian nonsingular (p<2: singular
        kernel, p>2: degenerate at flat regions); the residual itself is
        never modified.
        """
        d = self.as_vector(w)
        return _smoothed_slope(d.copy(), self.p, self.smoothing(d), self.p - 1.0)
