"""Traced run: spans around the package's public functions.

For the duration of a traced process, each wrapped function is replaced
in every `expfem` module namespace that holds it (so
`expfem.stepper.inverse_transform` and `expfem.assembly.forward_transform`
are traced too).  Each call records a span (name `<module>.<function>`,
start, end, parent, and a count where one is defined) in memory; the
spans are written out when the run ends.  End-to-end metrics never come
from a traced run.

Run as a script, this file is the traced child process of `run.py`:

    python3 perfbench/tracing.py WORKLOAD full|tiny SEED ROUNDS SPANS.json WORKDIR
"""

import contextlib
import functools
import importlib
import json
import os
import pkgutil
import statistics
import sys
import time

clock = time.perf_counter

STEP = "stepper.STEP"  # the workload's step function, see `resolve`

TARGETS = (
    "config.parse_config",
    "problems.mesh_for",
    "operator.build_operator",
    "operator.phi_tensor",
    "stepper.run",
    "stepper.StepWeights",
    "stepper.exp_euler_step",
    "stepper.exp_rk2_step",
    "assembly.initial_state",
    "assembly.transformed_load",
    "assembly.boundary_correction",
    "transforms.forward_transform",
    "transforms.inverse_transform",
    "mesh.extend_nodal",
    "analysis.sup_norm",
    "analysis.discrete_energy",
    "analysis.error_norms",
    "quadrature.apply_matrix",
    "writers.write_series_csv",
    "writers.write_snapshot",
)


def _transform_bytes(args, result):
    # computed from array sizes: input read plus output written
    return int(args[0].nbytes + result.nbytes)


def _apply_matrix_flops(args, result):
    matrix, tensor = args[0], args[1]
    rows, cols = matrix.shape
    return 2 * rows * cols * (tensor.size // cols)


def _file_bytes(args, result):
    return os.path.getsize(args[3])


COUNTERS = {
    "transforms.forward_transform": _transform_bytes,
    "transforms.inverse_transform": _transform_bytes,
    "quadrature.apply_matrix": _apply_matrix_flops,
    "writers.write_snapshot": _file_bytes,
}

FWD = "transforms.forward_transform"
INV = "transforms.inverse_transform"
LOAD = "assembly.transformed_load"
LIFT = "assembly.boundary_correction"
ENERGY = "analysis.discrete_energy"
ERRORS = "analysis.error_norms"
APPLY = "quadrature.apply_matrix"

# name, unit, better, wrap targets the value needs (empty: untraced)
LAYER_METRICS = (
    ("config.parse_s", "s", "lower", ("config.parse_config",)),
    ("operator.build_s", "s", "lower", ("operator.build_operator",)),
    ("operator.phi_s", "s", "lower",
     ("operator.phi_tensor", "stepper.StepWeights")),
    ("stepper.weights_s", "s", "lower", ("stepper.StepWeights",)),
    ("stepper.combine_s", "s", "lower", (STEP, INV, LOAD)),
    ("stepper.loop_overhead_s", "s", "lower", (STEP,)),
    ("stepper.step_median_s", "s", "lower", ()),
    ("stepper.step_tail_s", "s", "lower", ()),
    ("stepper.step_samples", "count", "higher", ()),
    ("assembly.initial_state_s", "s", "lower", ("assembly.initial_state",)),
    ("assembly.load_self_s", "s", "lower", (STEP, LOAD, FWD, LIFT)),
    ("assembly.lifting_s", "s", "lower", (STEP, LIFT)),
    ("assembly.lifting_calls_per_step", "count", "lower", (STEP, LIFT)),
    ("transforms.setup_forward_s", "s", "lower", ("stepper.run", FWD)),
    ("transforms.forward_s", "s", "lower", (STEP, FWD)),
    ("transforms.inverse_s", "s", "lower", (STEP, INV)),
    ("transforms.calls_per_step", "count", "lower", (STEP, FWD, INV)),
    ("transforms.bytes_per_step", "B", "lower", (STEP, FWD, INV)),
    ("transforms.floor_s", "s", "lower", ()),
    ("transforms.floor_ratio", "ratio", "lower", (STEP, FWD, INV)),
    ("transforms.observe_inverse_s", "s", "lower", (INV,)),
    ("mesh.extend_nodal_s", "s", "lower", ("mesh.extend_nodal",)),
    ("analysis.sup_norm_s", "s", "lower", ("analysis.sup_norm",)),
    ("analysis.energy_s", "s", "lower", (ENERGY,)),
    ("analysis.energy_peak_mb", "MiB", "lower", (ENERGY,)),
    ("analysis.error_norms_s", "s", "lower", (ERRORS,)),
    ("quadrature.apply_matrix_s", "s", "lower", (APPLY, ENERGY, ERRORS)),
    ("quadrature.apply_matrix_flops", "flop", "lower", (APPLY, ENERGY, ERRORS)),
    ("writers.series_s", "s", "lower", ("writers.write_series_csv",)),
    ("writers.snapshot_s", "s", "lower", ("writers.write_snapshot",)),
    ("writers.snapshot_bytes", "B", "lower", ("writers.write_snapshot",)),
    ("wall.setup_s", "s", "lower", ()),
    ("wall.step_s", "s", "lower", ()),
    ("wall.observe_s", "s", "lower", ()),
    ("wall.finish_s", "s", "lower", ()),
    ("host.floor_spread", "ratio", "lower", ()),
    ("cli.run_s", "s", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
)


def step_target(workload):
    return f"stepper.exp_{workload.scheme}_step"


def resolve(needs, workload):
    return [step_target(workload) if n == STEP else n for n in needs]


class Tracer:
    """Spans in memory, as [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []
        self._restore = []

    def _begin(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, clock(), None, None])
        self._open.append(sid)
        return sid

    def _end(self, sid, end, count=None):
        self._open.pop()
        self.spans[sid][3] = end
        self.spans[sid][4] = count

    @contextlib.contextmanager
    def span(self, name):
        """A span recorded by the benchmark itself around one phase."""
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid, clock())

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(sid, clock())
                raise
            end = clock()
            self._end(sid, end, counter(args, result) if counter else None)
            return result
        return traced

    def install(self, targets=TARGETS):
        """Wrap each target wherever an `expfem` module binds it.

        A target that no longer exists is recorded in `missing`.
        """
        import expfem
        for info in pkgutil.iter_modules(expfem.__path__):
            importlib.import_module(f"expfem.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "expfem" or n.startswith("expfem.")]
        for target in targets:
            modname, attr = target.split(".")
            try:
                original = getattr(importlib.import_module(f"expfem.{modname}"),
                                   attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            traced = self._wrap(original, target, COUNTERS.get(target))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


def _median(values):
    return statistics.median(values) if values else 0.0


class SpanTree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for sid, span in enumerate(spans):
            if span[1] >= 0:
                self.children[span[1]].append(sid)

    def ids(self, name):
        return [sid for sid, span in enumerate(self.spans) if span[0] == name]

    def duration(self, sid):
        return self.spans[sid][3] - self.spans[sid][2]

    def self_time(self, sid):
        return self.duration(sid) - sum(
            self.duration(c) for c in self.children[sid])

    def below(self, sid):
        """Every span under `sid`, depth first."""
        stack = list(reversed(self.children[sid]))
        while stack:
            cur = stack.pop()
            yield cur
            stack.extend(reversed(self.children[cur]))

    def name(self, sid):
        return self.spans[sid][0]

    def parent_name(self, sid):
        parent = self.spans[sid][1]
        return self.spans[parent][0] if parent >= 0 else None

    def per_call(self, name):
        return _median([self.duration(s) for s in self.ids(name)])

    def per_host(self, hosts, name, value):
        """Median over calls of `hosts` of `value` summed over `name`
        spans below each call."""
        totals = []
        for host in hosts:
            for sid in self.ids(host):
                totals.append(sum(value(c) for c in self.below(sid)
                                  if self.name(c) == name))
        return _median(totals)


def tail(samples):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are too few samples for that)."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def quartile_ratio(values):
    if len(values) < 2:
        return 1.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 / q1


def layer_metrics(workload, spans, traced_step_times, untraced, cli_s,
                  energy_peak_mb, missing):
    """Per-layer metrics {name: (value, unit)}.

    `spans` and `traced_step_times` (one list per traced round) come from
    the traced child; `untraced` is the parent's `Rounds`; `cli_s` is
    None when the CLI check failed.  Metrics that need a missing wrap
    target are left out, and so is `cli.run_s` without a `cli_s`.
    """
    tree = SpanTree(spans)
    steps = []
    for block in tree.ids("bench.steps"):
        steps.extend(c for c in tree.children[block]
                     if tree.name(c) == "stepper.run")
    step_ids = [c for run in steps for c in tree.children[run]
                if tree.name(c) == step_target(workload)]
    step_times = [t for times in traced_step_times for t in times]

    per_step = []
    for sid in step_ids:
        row = {"self": {}, "total": {}, "calls": {}, "count": {}}
        for c in tree.below(sid):
            name = tree.name(c)
            row["self"][name] = row["self"].get(name, 0.0) + tree.self_time(c)
            row["total"][name] = row["total"].get(name, 0.0) + tree.duration(c)
            row["calls"][name] = row["calls"].get(name, 0) + 1
            if tree.spans[c][4] is not None:
                row["count"][name] = row["count"].get(name, 0) + tree.spans[c][4]
        per_step.append(row)

    def over_steps(fn):
        return _median([fn(row) for row in per_step])

    fwd = over_steps(lambda r: r["self"].get(FWD, 0.0))
    inv = over_steps(lambda r: r["self"].get(INV, 0.0))
    floors = [r.floor_s for r in untraced.done]
    floor_s = _median(floors)
    untraced_times = [t for r in untraced.done for t in r.step_times]
    wall_step = _median([r.step_s for r in untraced.done])
    traced_step = _median([sum(t) / len(t) for t in traced_step_times if t])

    weights_phi = []
    for sid in tree.ids("stepper.StepWeights"):
        weights_phi.append(sum(tree.duration(c) for c in tree.below(sid)
                               if tree.name(c) == "operator.phi_tensor"))

    values = {
        "config.parse_s": tree.per_call("config.parse_config"),
        "operator.build_s": tree.per_call("operator.build_operator"),
        "operator.phi_s": _median(weights_phi),
        "stepper.weights_s": tree.per_call("stepper.StepWeights"),
        "stepper.combine_s": _median([tree.self_time(s) for s in step_ids]),
        "stepper.loop_overhead_s": _median(
            [t - tree.duration(s) for t, s in zip(step_times, step_ids)]),
        "stepper.step_median_s": _median(untraced_times),
        "stepper.step_tail_s": tail(untraced_times),
        "stepper.step_samples": len(untraced_times),
        "assembly.initial_state_s": tree.per_call("assembly.initial_state"),
        "assembly.load_self_s": over_steps(lambda r: r["self"].get(LOAD, 0.0)),
        "assembly.lifting_s": over_steps(lambda r: r["total"].get(LIFT, 0.0)),
        "assembly.lifting_calls_per_step": over_steps(
            lambda r: r["calls"].get(LIFT, 0)),
        "transforms.setup_forward_s": _median(
            [tree.duration(s) for s in tree.ids(FWD)
             if tree.parent_name(s) == "stepper.run"]),
        "transforms.forward_s": fwd,
        "transforms.inverse_s": inv,
        "transforms.calls_per_step": over_steps(
            lambda r: r["calls"].get(FWD, 0) + r["calls"].get(INV, 0)),
        "transforms.bytes_per_step": over_steps(
            lambda r: r["count"].get(FWD, 0) + r["count"].get(INV, 0)),
        "transforms.floor_s": floor_s,
        "transforms.floor_ratio": (fwd + inv) / floor_s,
        "transforms.observe_inverse_s": _median(
            [tree.duration(s) for s in tree.ids(INV)
             if tree.parent_name(s) == "bench.observe"]),
        "mesh.extend_nodal_s": tree.per_call("mesh.extend_nodal"),
        "analysis.sup_norm_s": tree.per_call("analysis.sup_norm"),
        "analysis.energy_s": tree.per_call(ENERGY),
        "analysis.energy_peak_mb": energy_peak_mb,
        "analysis.error_norms_s": tree.per_call(ERRORS),
        "quadrature.apply_matrix_s": tree.per_host(
            (ENERGY, ERRORS), APPLY, tree.duration),
        "quadrature.apply_matrix_flops": tree.per_host(
            (ENERGY, ERRORS), APPLY, lambda c: tree.spans[c][4]),
        "writers.series_s": tree.per_call("writers.write_series_csv"),
        "writers.snapshot_s": tree.per_call("writers.write_snapshot"),
        "writers.snapshot_bytes": _median(
            [tree.spans[s][4] for s in tree.ids("writers.write_snapshot")]),
        "wall.setup_s": _median([s for r in untraced.done for s in r.setups]),
        "wall.step_s": wall_step,
        "wall.observe_s": _median([r.observe_s for r in untraced.done]),
        "wall.finish_s": _median([r.finish_s for r in untraced.done]),
        "host.floor_spread": quartile_ratio(floors),
        "cli.run_s": cli_s,
        "trace.overhead_s": traced_step - wall_step,
    }
    gone = set(missing)
    return {name: (values[name], unit)
            for name, unit, _, needs in LAYER_METRICS
            if values[name] is not None
            and not gone.intersection(resolve(needs, workload))}


def energy_peak_mb(workload, seed):
    """tracemalloc peak of one energy call on the workload's mesh; 0 when
    the workload has no energy."""
    import tracemalloc

    import expfem.analysis as analysis
    import expfem.config as config
    import expfem.problems as problems
    import expfem.stepper as stepper
    import expfem.transforms as transforms

    cfg = config.parse_config(workload.config_text(), seed_override=seed)
    if cfg.problem.energy_params is None:
        return 0.0
    mesh = problems.mesh_for(cfg.problem, cfg.subdivisions)
    state = stepper.run(cfg.problem, mesh, stepper.SchemeConfig(
        dt=cfg.dt, T=0.0, scheme=cfg.scheme, c2=cfg.c2))
    U = transforms.inverse_transform(state.coeffs, mesh)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        analysis.discrete_energy(U, mesh, *cfg.problem.energy_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def traced_run(workload, seed, rounds, workdir):
    """Rounds under the tracer; returns the child's JSON-ready record."""
    from rounds import run_rounds
    tracer = Tracer()
    tracer.install()
    try:
        done = run_rounds(workload, seed, rounds, workdir, span=tracer.span,
                          log=sys.stderr)
    finally:
        tracer.restore()
    return {
        "spans": tracer.spans,
        "missing": tracer.missing,
        "step_times": [r.step_times for r in done.done],
        "attempted": done.attempted,
        "failures": done.failures,
        "energy_peak_mb": energy_peak_mb(workload, seed),
    }


def main(argv):
    import source
    source.prepare()
    from workloads import TINY, WORKLOADS
    name, size, seed, rounds, out, workdir = argv
    workload = (TINY if size == "tiny" else WORKLOADS)[name]
    record = traced_run(workload, int(seed), int(rounds), workdir)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
