"""Per-layer counters and spans, recorded around nyscat's public functions.

The tracer replaces module and class attributes with timing wrappers for the
length of a traced run and restores them afterwards; nothing in nyscat is
edited.  Spans nest through an explicit stack, so each span knows its parent
and its self time (its duration minus the time of its wrapped children).
Spans are aggregated in memory per (parent, name) and written out once, at
the end of the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from nyscat import physics, solver, spectral, topology
from nyscat.geometry.patches import Patch
from nyscat.kernels import operators, singular

class Tracer:
    """Wraps nyscat entry points; see install() for the list."""

    def __init__(self):
        self._stack = []  # [name, seconds covered by wrapped children]
        self._saved = []  # (owner, attribute, original)
        self._near_pending = False
        self._ladder_mark = 0
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, s, self s
        self.counts = defaultdict(int)

    def _timed(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            rec = self.spans[(parent, name)]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]

    def _wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = self._timed(label, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def install(self):
        c = self.counts

        def frames_done(args, _):
            c["geometry.frames_points"] += int(np.size(args[1]))

        def groups_done(_, groups):
            c["topology.groups"] += len(groups)

        def preimage_done(*_):
            self._near_pending = True

        def row_kind(*_):
            kind = "singular.near" if self._near_pending else "singular.onpatch"
            self._near_pending = False
            c[kind + "_rows"] += 1
            self._ladder_mark = c["singular.ladder_steps"]
            return kind

        def row_done(args, _):
            steps = c["singular.ladder_steps"] - self._ladder_mark
            if steps >= len(singular.LADDER):
                c["singular.rows_at_last_level"] += 1

        def fan_done(*_):
            c["singular.ladder_steps"] += 1

        def green_done(_, vals):
            c["green.evals"] += int(np.size(vals))

        def gradient_done(_, vals):
            c["green.evals"] += int(np.size(vals)) // 3

        def gmres_done(_, report):
            c["solver.iterations"] += report.iterations

        self._wrap(Patch, "frames", "geometry.frames", frames_done)
        self._wrap(topology, "build_coincidence", "topology.coincidence", groups_done)
        self._wrap(topology, "build_projection", "topology.maps")
        self._wrap(topology, "build_compression", "topology.maps")
        self._wrap(operators, "nearest_preimage", "singular.preimage", preimage_done)
        self._wrap(operators, "weights_on_patch", row_kind, row_done)
        self._wrap(singular, "fan_rule", "singular.fan_rule", fan_done)
        self._wrap(spectral, "interp_matrix", "spectral.interp")
        self._wrap(operators, "green", "green", green_done)
        self._wrap(operators, "green_gradient", "green", gradient_done)
        for cls in (operators.EfieOperator, operators.MfieOperator):
            self._wrap(cls, "__init__", "operators.build")
            self._wrap(cls, "apply", "operators.matvec")
            self._wrap(cls, "rhs", "physics.rhs")
        self._wrap(solver, "gmres", "solver.gmres", gmres_done)
        self._wrap(physics, "far_field", "physics.farfield")
        self._wrap(physics, "mie_reference", "physics.mie")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def calls(self, name, parent=...) -> int:
        return sum(r[0] for (p, n), r in self.spans.items()
                   if n == name and (parent is ... or p == parent))

    def seconds(self, name) -> float:
        return sum(r[1] for (_, n), r in self.spans.items() if n == name)

    def self_seconds(self, name) -> float:
        return sum(r[2] for (_, n), r in self.spans.items() if n == name)

    def metrics(self, op) -> dict:
        """Per-layer values of one traced run (trace.overhead_s is added later)."""
        c = self.counts
        dense = sum(v.nbytes for v in vars(op).values()
                    if isinstance(v, np.ndarray) and v.ndim >= 2)
        return {
            "geometry.frames_calls": self.calls("geometry.frames"),
            "geometry.frames_points": c["geometry.frames_points"],
            "geometry.frames_s": self.seconds("geometry.frames"),
            "topology.coincidence_s": self.seconds("topology.coincidence"),
            "topology.maps_s": self.seconds("topology.maps"),
            "topology.groups": c["topology.groups"],
            "singular.onpatch_rows": c["singular.onpatch_rows"],
            "singular.onpatch_s": self.seconds("singular.onpatch"),
            "singular.near_rows": c["singular.near_rows"],
            "singular.near_s": self.seconds("singular.near"),
            "singular.ladder_steps": c["singular.ladder_steps"],
            "singular.rows_at_last_level": c["singular.rows_at_last_level"],
            "singular.preimage_calls": self.calls("singular.preimage"),
            "singular.preimage_s": self.seconds("singular.preimage"),
            "spectral.interp_calls": self.calls("spectral.interp"),
            "spectral.interp_s": self.seconds("spectral.interp"),
            "green.calls": self.calls("green"),
            "green.evals": c["green.evals"],
            "green.s": self.seconds("green"),
            "operators.build_self_s": self.self_seconds("operators.build"),
            "operators.matvec_calls": self.calls("operators.matvec"),
            "operators.matvec_s": self.seconds("operators.matvec"),
            "operators.dense_bytes": dense,
            "solver.iterations": c["solver.iterations"],
            "solver.gmres_s": self.seconds("solver.gmres"),
            "solver.orth_s": self.self_seconds("solver.gmres"),
            "physics.rhs_s": self.seconds("physics.rhs"),
            "physics.farfield_s": self.seconds("physics.farfield"),
            "physics.mie_s": self.seconds("physics.mie"),
            # not a metric: checked against the sum of SolveReport.iterations
            "matvec_calls_in_gmres": self.calls("operators.matvec", "solver.gmres"),
        }

    def dump(self) -> list:
        """Aggregated spans as JSON-ready rows."""
        return [{"parent": p, "name": n, "calls": r[0], "s": r[1], "self_s": r[2]}
                for (p, n), r in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]
