"""The benchmark's fixed workloads and the references their checks use.

Each workload is one `expfem run` configuration, timed as a fixed number
of rounds.  The round count comes from the run length and a per-workload
rate fixed here, never from how fast the program runs, so a faster
commit does the same work in less time instead of more work.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str
    scheme: str
    subdivisions: tuple
    dt: float
    steps: int                  # K, the steps of one round's block
    rounds_per_minute: float    # fixed rate; see `round_count`
    bound: float                # admissible sup norm of the state
    strict_bound: bool          # |u| < bound instead of |u| <= bound
    floor_calls: int            # timed floor units per floor block
    # seconds of one floor unit on the host that defined the benchmark;
    # `setup_s` is the set-up's floors at this speed (see run.py)
    reference_floor_s: float
    setups_per_round: int = 1
    observe_repeats: int = 1    # short phases are timed several times
    finish_repeats: int = 1
    snapshot: bool = False
    # (L2, H1) errors at T = steps * dt at the commit that defined the
    # benchmark; None when the problem has no exact solution
    reference_errors: Optional[tuple] = None
    tiny: bool = False          # a test-size variant from TINY

    @property
    def T(self):
        return self.steps * self.dt

    @property
    def stages(self):
        return 1 if self.scheme == "euler" else 2

    def config_text(self):
        """Config of one run over the block of K steps.

        The CLI check observes and, where the workload writes
        snapshots, snapshots at steps 0 and K.  The seed is
        not part of the text: it reaches the program only through
        `parse_config(..., seed_override=...)` or `--seed`.
        """
        lines = [
            'mode = "run"',
            f'problem = "{self.problem}"',
            f'scheme = "{self.scheme}"',
            f"T = {self.T!r}",
            f"nt = {self.steps}",
            f"observe_every = {self.steps}",
        ]
        if self.snapshot:
            lines.append(f"snapshot_every = {self.steps}")
        lines += [
            "[domain]",
            "n = [{}]".format(", ".join(str(n) for n in self.subdivisions)),
            "[output]",
            'series = "series.csv"',
            'snapshot = "snapshot_{step:06d}.vtk"',
        ]
        return "\n".join(lines) + "\n"


def round_count(workload, seconds):
    """Rounds of a run of the given length; independent of speed."""
    return max(3, math.ceil(workload.rounds_per_minute * seconds / 60.0))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fh_periodic_64",
        why="periodic real-Fourier transforms dominate the step and the "
            "dense-quadrature energy dominates observation; no lifting",
        problem="flory_huggins", scheme="rk2", subdivisions=(64, 64, 64),
        dt=0.01, steps=20, rounds_per_minute=24,
        bound=1.0, strict_bound=True, floor_calls=4,
        reference_floor_s=8.6e-3,
        setups_per_round=3, finish_repeats=5,
    ),
    Workload(
        name="acw_dirichlet_256",
        why="DST-I plus nonhomogeneous Dirichlet lifting (about half the "
            "step); finish is error_norms; no energy, no periodic transform",
        problem="allen_cahn_wave", scheme="rk2", subdivisions=(256, 24, 24),
        dt=2.5e-4, steps=20, rounds_per_minute=32,
        bound=1.0, strict_bound=False, floor_calls=6,
        reference_floor_s=7.7e-3,
        setups_per_round=3, observe_repeats=5,
        reference_errors=(4.521505628326632e-05, 0.004170083165985021),
    ),
    Workload(
        name="lrd_euler_2d",
        why="millisecond Euler steps on 32k dofs where per-step Python "
            "overhead shows; finish is error_norms plus the VTK writer",
        problem="linear_rd", scheme="euler", subdivisions=(256, 128),
        dt=2.5e-4, steps=200, rounds_per_minute=100,
        bound=2.0, strict_bound=False, floor_calls=12,
        reference_floor_s=6.3e-4,
        setups_per_round=5, observe_repeats=5, snapshot=True,
        reference_errors=(0.00021779289961025523, 0.019240973738375022),
    ),
)}

# Small variants that run in seconds, for the benchmark's own tests.
# dt stays at the full size's value: larger steps break |u| <= 1 on the
# coarse Allen-Cahn grid.
TINY = {
    "fh_periodic_64": replace(
        WORKLOADS["fh_periodic_64"], subdivisions=(8, 8, 8), steps=4,
        floor_calls=2, tiny=True),
    "acw_dirichlet_256": replace(
        WORKLOADS["acw_dirichlet_256"], subdivisions=(32, 4, 4), steps=4,
        floor_calls=2, tiny=True,
        reference_errors=(0.0005539751678380298, 0.02999682634008082)),
    "lrd_euler_2d": replace(
        WORKLOADS["lrd_euler_2d"], subdivisions=(16, 8), steps=8,
        floor_calls=2, tiny=True,
        reference_errors=(0.023361428672904527, 0.49524592735555595)),
}
