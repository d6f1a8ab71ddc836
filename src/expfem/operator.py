"""Modal representation of the diffusion operator and the integrator weights.

After the basis change the semi-discrete system decouples into
scalar ODEs; `decay_rates` holds the modal rates D * sum(stiff/mass) and
`load_scale` the reciprocal products of mass eigenvalues that turn raw
load coefficients into right-hand sides.  The phi family (phi_0 = e^z,
phi_{k+1}(z) = (phi_k(z) - phi_k(0))/z) supplies the quadrature weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .transforms import axis_spectrum, modal_shape

# series/closed-form switch points; expm1 keeps phi_1 exact down to 1e-4,
# while phi_2's subtraction needs |z| >= 0.1 before it stops losing digits
PHI1_TAYLOR_CUTOFF = 1e-4
PHI2_TAYLOR_CUTOFF = 0.1

# phi_2 = sum_j z^j / (j+2)!, truncated after z^8 (error < 1e-16 at 0.1)
_PHI2_COEFFS = [1.0 / math.factorial(j + 2) for j in range(9)][::-1]


def phi(k, z):
    """Evaluate phi_k entrywise; k in {0, 1, 2}.

    Below the switch points a truncated Taylor series avoids the
    cancellation of the closed forms; both branches agree to 1e-14
    relative at the switch.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if k == 0:
        out = np.exp(z)
    elif k == 1:
        out = np.empty_like(z)
        small = np.abs(z) < PHI1_TAYLOR_CUTOFF
        zs, zl = z[small], z[~small]
        out[small] = 1 + zs / 2 + zs**2 / 6 + zs**3 / 24 + zs**4 / 120
        out[~small] = np.expm1(zl) / zl
    elif k == 2:
        out = np.empty_like(z)
        small = np.abs(z) < PHI2_TAYLOR_CUTOFF
        zs, zl = z[small], z[~small]
        acc = np.full_like(zs, _PHI2_COEFFS[0])
        for c in _PHI2_COEFFS[1:]:
            acc = acc * zs + c
        out[small] = acc
        out[~small] = (np.expm1(zl) - zl) / zl**2
    else:
        raise ValueError(f"phi order must be 0, 1 or 2, got {k}")
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DiagonalizedOperator:
    """The assembled modal rate/scale tensors."""

    diffusion: float
    decay_rates: np.ndarray
    load_scale: np.ndarray


def build_operator(mesh, diffusion):
    """Assemble the modal operator for a mesh and diffusion coefficient."""
    if diffusion <= 0:
        raise ValueError(f"diffusion coefficient must be positive, got {diffusion}")
    rates = 0.0
    scale = 1.0
    for a, (p, m) in enumerate(zip(mesh.partitions, modal_shape(mesh))):
        sp = axis_spectrum(p, mesh.bc)
        shape = [1] * mesh.dim
        shape[a] = m
        rates = rates + (sp.stiffness[:m] / sp.mass[:m]).reshape(shape)
        scale = scale * (1.0 / sp.mass[:m]).reshape(shape)
    rates = diffusion * rates
    return DiagonalizedOperator(
        diffusion=diffusion,
        decay_rates=np.ascontiguousarray(rates),
        load_scale=np.ascontiguousarray(np.broadcast_to(scale, rates.shape)),
    )


def phi_tensor(k, op, tau, scale=1.0):
    """Entrywise phi_k(-scale*tau*rates) over the modal rate tensor."""
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    if not 0 < scale <= 1:
        raise ValueError(f"stage scale must lie in (0, 1], got {scale}")
    return phi(k, -scale * tau * op.decay_rates)
