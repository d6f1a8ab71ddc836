"""Modal representation of the diffusion operator and the integrator weights.

After the basis change the semi-discrete system decouples into
scalar ODEs, so the operator is its modal rate tensor
D * sum(stiff/mass), which `build_operator` returns.  The phi family
(phi_0 = e^z, phi_{k+1}(z) = (phi_k(z) - phi_k(0))/z) supplies the
quadrature weights.
"""

import math

import numpy as np

from .transforms import axis_spectrum, modal_shape

# series/closed-form switch point: phi_2's subtraction needs |z| >= 0.1
# before it stops losing digits
PHI2_TAYLOR_CUTOFF = 0.1

# phi_2 = sum_j z^j / (j+2)!, truncated after z^8 (error < 1e-16 at 0.1)
_PHI2_COEFFS = [1.0 / math.factorial(j + 2) for j in range(9)][::-1]


def phi(k, z):
    """Evaluate phi_k entrywise; k in {1, 2}.

    phi_1 is expm1(z)/z, within rounding of the exact value for every
    z != 0, and 1 at z = 0.  Below its switch point phi_2 takes a
    truncated Taylor series, which avoids the cancellation of the closed
    form; both branches agree to 1e-14 relative at the switch.  Each
    branch runs over the whole array, and the entries it does not own
    are overwritten, so its warnings there are silenced.
    """
    z = np.asarray(z, dtype=float)
    if k not in (1, 2):
        raise ValueError(f"phi order must be 1 or 2, got {k}")
    out = np.expm1(z, out=np.empty_like(z))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k == 1:
            out /= z
            np.copyto(out, 1.0, where=z == 0)
            return out
        out -= z
        out /= np.square(z)
        small = np.abs(z) < PHI2_TAYLOR_CUTOFF
        if small.any():
            acc = np.full_like(z, _PHI2_COEFFS[0])
            for c in _PHI2_COEFFS[1:]:
                acc *= z
                acc += c
            np.copyto(out, acc, where=small)
    return out


def build_operator(mesh, diffusion):
    """The modal rate tensor of a mesh and diffusion coefficient,
    C-contiguous."""
    if diffusion <= 0:
        raise ValueError(f"diffusion coefficient must be positive, got {diffusion}")
    rates = 0.0
    for a, (p, m) in enumerate(zip(mesh.partitions, modal_shape(mesh))):
        mass, stiffness = axis_spectrum(p, mesh.bc)
        shape = [1] * mesh.dim
        shape[a] = m
        rates = rates + (stiffness[:m] / mass[:m]).reshape(shape)
    return np.ascontiguousarray(diffusion * rates)


def phi_tensor(k, rates, tau):
    """Entrywise phi_k(-tau*rates) over the modal rate tensor."""
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    return phi(k, -tau * rates)
