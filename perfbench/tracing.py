"""In-memory span tracing of ssm_resolve's public functions, from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each traced function in every ``ssm_resolve`` module namespace that holds it
(so ``cli`` and ``frc``, which import ``compute_nonautonomous_ssm`` by name,
both see the wrapper) and ``uninstall`` puts the originals back.  A span is
(name, start, end, parent span, op id); spans stay in parallel lists until
the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import wraps

import numpy as np

#: (module, qualified attribute, span name).  Span names are the metric
#: prefixes of the per-layer table in README.md.
TARGETS = (
    ("ssm_resolve.ssm_forced", "compute_nonautonomous_ssm",
     "compute_nonautonomous_ssm"),
    ("ssm_resolve.frc", "trace_frc", "trace_frc"),
    ("ssm_resolve.frc", "physical_amplitude", "physical_amplitude"),
    ("ssm_resolve.reduced", "assemble_polar", "assemble_polar"),
    ("ssm_resolve.reduced", "zero_problem", "zero_problem"),
    ("ssm_resolve.reduced", "fixed_point_stability", "fixed_point_stability"),
    ("ssm_resolve.ssm_auto", "compute_autonomous_ssm",
     "compute_autonomous_ssm"),
    ("ssm_resolve.ssm_auto", "invariance_residual", "invariance_residual"),
    ("ssm_resolve.polyalg", "dense_mul", "dense_mul"),
    ("ssm_resolve.polyalg", "dense_pow", "dense_pow"),
    ("ssm_resolve.polyalg", "dense_eval", "dense_eval"),
    ("ssm_resolve.polyalg", "dense_to_poly", "dense_to_poly"),
    ("ssm_resolve.isola", "roots_of_a", "roots_of_a"),
    ("ssm_resolve.isola", "classify_roots", "classify_roots"),
    ("ssm_resolve.isola", "isola_report", "isola_report"),
    ("ssm_resolve.oracle", "integrate_full", "integrate_full"),
    ("ssm_resolve.oracle", "sweep", "sweep"),
    ("ssm_resolve.model", "modal_decompose", "modal_decompose"),
    ("ssm_resolve.model", "FirstOrderSystem.nonlinearity",
     "FirstOrderSystem.nonlinearity"),
    ("ssm_resolve.sysio", "read_system", "read_system"),
    ("ssm_resolve.sysio", "write_system", "write_system"),
    ("ssm_resolve.beam", "build_beam", "build_beam"),
    ("ssm_resolve.svgplot", "frc_svg", "frc_svg"),
    ("ssm_resolve.svgplot", "roots_svg", "roots_svg"),
    ("ssm_resolve.cli", "main", "cli.main"),
)

SKIP_REASONS = {
    "omega iteration diverged": "diverged",
    "zero-problem residual too large": "residual",
    "omega outside window": "window",
}


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; ``op`` is the id of the benchmark op now running."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # typed arrays: 32 bytes a span, where lists of Python numbers take
        # about 110 (an oracle pass records about a million spans)
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("i")
        self.counts: dict[int, Counter] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._arrays: dict[str, np.ndarray] | None = None

    # -- recording -------------------------------------------------------

    def _observe(self, name: str, result) -> None:
        """Counters read off results at the layer boundary."""
        c = self.counts.setdefault(self.op, Counter())
        if name == "trace_frc":
            c["frc.points_accepted"] += len(result.points)
            for _, _, reason in result.skipped:
                c["frc.points_skipped." + SKIP_REASONS.get(reason, "other")] += 1
        elif name == "integrate_full":
            c["oracle.steps_accepted"] += len(result.t) - 1
            c["oracle.steps_rejected"] += result.n_rejected
        elif name == "sweep":
            c["oracle.points"] += result.omega.size
            c["oracle.converged"] += int(result.converged.sum())
            c["oracle.periods"] += int(result.periods.sum())

    def wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            self._observe(name, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Replace each target wherever an ssm_resolve module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "ssm_resolve" or k.startswith("ssm_resolve.")]
        for module, qualname, name in targets:
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            if "." in qualname:
                continue  # a method: every caller finds it on the class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays, converted once per span count."""
        if self._arrays is None or self._arrays["start"].size != len(self.start):
            # copies, so that the typed arrays stay free to grow
            self._arrays = {"name": np.array(self.span_name),
                            "start": np.array(self.start),
                            "end": np.array(self.end),
                            "parent": np.array(self.parent),
                            "op": np.array(self.span_op)}
        return self._arrays

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, ops: list[int], op_kind: dict[int, str]
                  ) -> dict[str, float]:
    """Per-layer numbers over the spans of ``ops`` (one pass).

    ``X.calls`` counts spans named X; ``X.self_s`` sums their durations
    minus the time covered by their direct child spans.
    """
    a = tracer.arrays()
    n = a["name"].size
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                             minlength=n) if n else np.zeros(0)
    self_time = dur - child_time
    in_pass = np.isin(a["op"], ops)
    out: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        sel = in_pass & (a["name"] == nid)
        out[f"{name}.calls"] = int(sel.sum())
        out[f"{name}.self_s"] = float(self_time[sel].sum())

    def nid(name: str) -> int:
        return tracer.names.index(name) if name in tracer.names else -2

    forced, trace_id, main_id = (nid(n) for n in (
        "compute_nonautonomous_ssm", "trace_frc", "cli.main"))
    trace_solves = amp_solves = 0
    solve_s = 0.0
    for i in np.flatnonzero(in_pass & (a["name"] == forced)):
        p = a["parent"][i]
        if p >= 0 and a["name"][p] == main_id \
                and op_kind.get(int(a["op"][i])) == "frc":
            amp_solves += 1
        while p >= 0 and a["name"][p] != trace_id:
            p = a["parent"][p]
        if p >= 0:
            trace_solves += 1
            solve_s += float(dur[i])
    out["ssm_forced.trace_solves"] = trace_solves
    out["ssm_forced.amp_solves"] = amp_solves
    # forced solves (children included) as a share of trace_frc time
    trace_s = float(dur[in_pass & (a["name"] == trace_id)].sum())
    out["ssm_forced.trace_share"] = solve_s / trace_s if trace_s else 0.0

    c = Counter()
    for op in ops:
        c.update(tracer.counts.get(op, {}))
    for key in ("frc.points_accepted", "frc.points_skipped.diverged",
                "frc.points_skipped.residual", "frc.points_skipped.window",
                "oracle.steps_accepted", "oracle.steps_rejected",
                "oracle.periods"):
        out[key] = int(c[key])
    out["frc.points_per_solve"] = (c["frc.points_accepted"] / trace_solves
                                   if trace_solves else 0.0)
    attempted = c["oracle.steps_accepted"] + c["oracle.steps_rejected"]
    out["oracle.step_accept_ratio"] = (c["oracle.steps_accepted"] / attempted
                                       if attempted else 0.0)
    # RK45 (Dormand-Prince) evaluates the right-hand side six times per
    # attempted step; computed from the step counts, not counted
    out["oracle.rhs_evals"] = 6 * attempted
    out["oracle.converged_ratio"] = (c["oracle.converged"] / c["oracle.points"]
                                     if c["oracle.points"] else 0.0)
    return out
