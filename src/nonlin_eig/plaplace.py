"""Mean-value discrete p-Laplacian, its Jacobian, energy and norms.

The operator on the lattice is
    Delta_p^h u(x) = C_h * sum_{y in B_r(x)} |u(y)-u(x)|^(p-2) (u(y)-u(x))
with C_h = h^2 / (D_{2,p} pi r^(p+2)).  Reads outside the domain (and at
non-interior nodes) are 0.  The discrete Dirichlet energy is defined as the
symmetrized double sum whose exact gradient under the h^2-weighted pairing
is -Delta_p^h, which makes the discrete Euler identity hold to roundoff.

The operator, the energy and the Jacobian read the stencil through one
neighbour table of shape (K+1, n), for K stencil offsets and n interior
nodes numbered row-major.  Row k holds every node's neighbour at offset k;
the node itself sits in a centre row, at the place of (0, 0) among the
lexsorted offsets of build_stencil.  A neighbour that is not an interior
node reads the appended zero slot n.  One gather of the interior values
extended by that zero gives u(y) - u(x) for every (offset, node) at once:
- the operator sums power_map of it over the offsets (the centre adds 0);
- the energy sums |u(y)-u(x)|^p and counts each edge to a non-interior
  node twice, once from each end, because the double sum also runs over
  the non-interior nodes, whose values are 0;
- the Jacobian writes its weights into CSR data on a fixed pattern read
  from the transposed table, whose columns come sorted in each row; the
  centre slot is the diagonal and zero-slot entries are left out.
The table and the CSR pattern are built on first use, not in __init__, so
that building an instance stays cheap.

Two rules scale the smoothing epsilon: kernel_derivative (the prox
diagonal) scales it by max|d| of its argument, jacobian_matrix by max|u|
over the interior nodes.  Unifying them would change Newton iterates.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse

from .functional import FunctionalPair, power_map
from .grid import GridDomain, GridFunction, Stencil
from . import newton


def _values(u) -> np.ndarray:
    if isinstance(u, GridFunction):
        return u.values
    return np.asarray(u, dtype=float)


class PLaplaceInstance(FunctionalPair):
    """FunctionalPair for the grid p-Laplacian.

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

    # --- array plumbing ------------------------------------------------------

    @property
    def n_interior(self) -> int:
        return self.domain.n_interior

    def free_flatten(self, u):
        return _values(u)[self._mask].copy()

    def lift_free(self, x):
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

    def _differences(self, u) -> np.ndarray:
        """u(y) - u(x), one row per table row, one column per interior x."""
        ext = np.zeros(self.n_interior + 1)
        ext[:-1] = _values(u)[self._mask]
        d = ext[self._table]
        d -= ext[:-1]
        return d

    # --- operator, energy, Jacobian ------------------------------------------

    def neg_plaplacian(self, u) -> np.ndarray:
        """-Delta_p^h u; zero at non-interior nodes (= subgrad of J)."""
        acc = np.sum(power_map(self._differences(u), self.p), axis=0)
        return self.lift_free(-self.stencil.weight * acc)

    def dirichlet_energy(self, u) -> float:
        """J_h(u) = (C_h h^2 / (2p)) * sum over directed stencil pairs."""
        a = self._differences(u)
        np.abs(a, out=a)
        a **= self.p
        total = float(np.sum(a) + np.sum(a[self._table == self.n_interior]))
        return self.stencil.weight * self._h2 * total / (2.0 * self.p)

    def kernel_derivative(self, d: np.ndarray, epsilon: float | None = None
                          ) -> np.ndarray:
        """(p-1)(d^2 + eps^2)^((p-2)/2), the smoothed derivative of power_map.

        The smoothing keeps Newton's Jacobian nonsingular (p<2: singular
        kernel, p>2: degenerate at flat regions); the residual itself is
        never modified.
        """
        if epsilon is None:
            epsilon = self.epsilon * max(1.0, float(np.max(np.abs(d))) if d.size else 1.0)
        return (self.p - 1.0) * (d * d + epsilon * epsilon) ** ((self.p - 2.0) / 2.0)

    def jacobian_matrix(self, u, epsilon: float | None = None):
        """Sparse symmetric PSD Jacobian of -Delta_p^h over interior nodes."""
        n, c = self.n_interior, self._centre
        if epsilon is None:
            scale = float(np.max(np.abs(_values(u)[self._mask]), initial=0.0))
            epsilon = self.epsilon * max(1.0, scale)
        w = self._differences(u)
        w *= w
        w += epsilon * epsilon
        w **= (self.p - 2.0) / 2.0
        w *= self.stencil.weight * (self.p - 1.0)
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
        init = _values(warm_start) if warm_start is not None \
            else np.zeros((self.domain.ny, self.domain.nx))
        return newton.solve_p_poisson(self, _values(zeta), init, settings)

    def prox_J(self, u_ref, tau, settings=None):
        return newton.solve_prox(self, _values(u_ref), tau, settings)

    def duality_map_H(self, u):
        vals = np.where(self._mask, _values(u), 0.0)
        return np.where(self._mask, power_map(vals, self.p), 0.0)

    def norm_H(self, u):
        vals = np.where(self._mask, _values(u), 0.0)
        return float((self._h2 * np.sum(np.abs(vals) ** self.p)) ** (1.0 / self.p))

    def dual_norm_H(self, zeta):
        vals = np.where(self._mask, _values(zeta), 0.0)
        return float((self._h2 * np.sum(np.abs(vals) ** self.q)) ** (1.0 / self.q))

    def pairing(self, zeta, u):
        return float(self._h2 * np.sum(_values(zeta) * _values(u)))

    def hess_J_matrix(self, u):
        return self.jacobian_matrix(u)

    def duality_map_H_prime(self, w):
        vals = _values(w)
        return self.kernel_derivative(vals[self._mask])

