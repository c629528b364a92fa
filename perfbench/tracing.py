"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each public boundary below with a wrapper and
``Tracer.restore`` puts the originals back. A function is re-bound in every
module that imported it by name (``from .forms import eval_form`` in
``operators``, ``stochastic`` and ``harness``, say), so each of those bindings
is patched; methods are patched on their class. Spans (name, parent, start,
end) are kept in flat arrays and turned into self times only at the end:
a span's self time is its duration minus the durations of its direct
children. Very frequent leaf calls get a call counter and no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _subsets(W, config) -> int:
    return sum(math.comb(config.n, t.m) for t in W.terms)


def _sample_batch(a, k, out):
    return {"configs": _arg(a, k, 4, "n_samples"), "points": out.points.shape[0]}


def _iterated_kernel(a, k, out):
    from poissonforms.pointprocess import iterated_kernel

    bound = inspect.signature(iterated_kernel).bind(*a, **k)
    bound.apply_defaults()
    q, n = bound.arguments["inner_values"].shape
    steps = len(bound.arguments["step_weights"])
    # each step evaluates the previous profile at Q shifts of cheb_n nodes
    # on every statistic axis
    return {"steps": steps, "bary_rows": steps * q * bound.arguments["cheb_n"] * n}


def _eval_form(a, k, out):
    return {
        "subsets": _subsets(_arg(a, k, 0, "W"), _arg(a, k, 1, "config")),
        "nonzero": len(out.components),
    }


def _points(i: int, name: str):
    return lambda a, k, out: {"points": len(_arg(a, k, i, name))}


@dataclass(frozen=True)
class Boundary:
    """A public name to wrap. ``name`` is ``<module>.<attr>`` as reported;
    ``attr`` is the attribute path inside the module. ``counts`` maps the
    call's arguments and result to extra counters."""

    name: str
    attr: str
    span: bool = True
    counts: Optional[Callable[[tuple, dict, object], dict]] = None

    @property
    def module(self) -> str:
        return "poissonforms." + self.name.split(".", 1)[0]


def _b(name: str, attr: Optional[str] = None, span: bool = True, counts=None) -> Boundary:
    return Boundary(name, attr or name.split(".", 1)[1], span, counts)


BOUNDARIES = (
    _b("pointprocess.sample_batch", counts=_sample_batch),
    _b("pointprocess.SampleBatch.segment_sum", counts=_points(1, "values")),
    _b("pointprocess.sample"),
    _b("pointprocess.iterated_kernel", counts=_iterated_kernel),
    _b("pointprocess.ChebProfile.call", "ChebProfile.__call__",
       counts=lambda a, k, out: {"rows": np.atleast_2d(np.asarray(a[1])).shape[0]}),
    _b("pointprocess.expect_series"),
    _b("pointprocess.RngStream.init", "RngStream.__init__"),
    _b("pointprocess.laplace_check"),
    _b("pointprocess.mecke_check"),
    _b("geometry.sigma_mass"),
    _b("geometry.Sphere.frame"),
    _b("geometry.Sphere.transport", span=False),
    _b("quadrature.adaptive_box_integral"),
    _b("fields.Field.value_batch", counts=_points(1, "X")),
    _b("fields.Field.grad_batch", counts=_points(1, "X")),
    _b("fields.Field.value_one", span=False),
    # field classes outside ``Field``, with their own evaluation
    _b("fields.RadialBump.value_batch", counts=_points(1, "X")),
    _b("fields.SphereAxisField.value_batch", counts=_points(1, "P")),
    _b("fields.SphereAxisField.value_one", span=False),
    _b("fields.SphereKilling.value_one", span=False),
    _b("fields.SphereGradientField.value_one", span=False),
    _b("exterior.curvature_operator"),
    _b("exterior.block_potential"),
    _b("exterior.t_basis", span=False),
    _b("exterior.transport_slot"),
    _b("forms.eval_form", counts=_eval_form),
    _b("forms.SymmetricFormField.value", span=False),
    _b("forms.FormValue.inner"),
    _b("forms.FormValue.norm"),
    _b("forms.EvalCache.init", "EvalCache.__init__", span=False),
    _b("operators.lift", counts=lambda a, k, out: {
        "subsets": _subsets(_arg(a, k, 3, "W"), _arg(a, k, 4, "config"))}),
    _b("operators.d_gamma"),
    _b("operators.dstar_gamma"),
    _b("operators.point_partial_form"),
    _b("operators.apply_r_pi_sigma"),
    _b("operators.r_pi_sigma", span=False),
    _b("operators.weitz_matrix", span=False),
    _b("operators.ibp_check"),
    _b("operators.dirichlet_check"),
    _b("operators.adjointness_check"),
    _b("operators.dd_zero_check"),
    _b("operators.weitzenbock_check"),
    _b("operators.factorization_check"),
    _b("stochastic.parallel_translate", counts=lambda a, k, out: {
        "steps": _arg(a, k, 1, "path").paths.shape[1] - 1}),
    _b("stochastic.simulate_particles", counts=lambda a, k, out: {
        "particle_steps": _arg(a, k, 2, "gamma").n * _arg(a, k, 3, "cfg").n_steps}),
    _b("stochastic.semigroup_T0"),
    _b("stochastic.eigen_decay_check"),
    _b("stochastic.frame_bound_check"),
    _b("stochastic.domination_check"),
    _b("stochastic.semigroup_property_check"),
    _b("stochastic.poisson_invariance_check"),
    _b("stochastic.sphere_uniform_check"),
    _b("stochastic.generator_check"),
    _b("stochastic.generator_check_function"),
    _b("harness.run_experiment"),
)


class Tracer:
    """Wrappers, spans and counters for one process."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = {b.name: b for b in boundaries}
        self.names = [b.name for b in boundaries]
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    # -- installation --------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every boundary, in the package and in ``extra_modules``
        (benchmark modules that imported package functions by name)."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "poissonforms" or n.startswith("poissonforms.")
        ] + list(extra_modules)
        for nid, b in enumerate(self.boundaries.values()):
            owner = importlib.import_module(b.module)
            *cls_path, attr = b.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            wrapper = self._wrap(b, nid, orig)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, b: Boundary, nid: int, fn):
        calls_key = b.name + ".calls"
        tracer = self

        if not b.span:
            def counted(*args, **kwargs):
                tracer.counters[calls_key] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        prefix, counts = b.name + ".", b.counts

        def spanned(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            tracer.counters[calls_key] += 1
            if counts is not None:
                for key, v in counts(args, kwargs, out).items():
                    tracer.counters[prefix + key] += int(v)
            return out

        return functools.update_wrapper(spanned, fn)

    # -- results -------------------------------------------------------

    def summary(self, wall: float) -> dict:
        """Self time per boundary, counters, and the covered share of
        ``wall``. Self times plus the uncovered residual equal ``wall`` by
        construction; ``min_self_s`` and ``residual_s`` turn negative only
        when spans do not nest."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                               weights=self_t, minlength=len(self.names))
        covered = float(dur[~child].sum())
        self_s = {n: float(t) for n, t in zip(self.names, per_name)}
        return {
            "wall_s": wall,
            "covered_s": covered,
            "residual_s": wall - covered,
            "self_total_s": float(per_name.sum()),
            "min_self_s": float(self_t.min(initial=0.0)),
            "self_s": self_s,
            "counters": dict(self.counters),
            "spans": int(dur.size),
        }

    def save(self, path: str, summary: dict) -> None:
        """Write the raw spans and the summary."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            summary=np.array(json.dumps(summary, sort_keys=True)),
        )

    def metric(self, name: str, summaries: list[dict]) -> float:
        """Value of a per-layer metric ``<boundary>.<calls|self_s|counter>``:
        self times are averaged over the passes, counters (which repeat
        exactly) are taken from the first."""
        prefix, suffix = name.rsplit(".", 1)
        if prefix not in self.boundaries:
            raise KeyError(f"per-layer metric {name!r} names no traced boundary")
        counters = summaries[0]["counters"]
        if suffix == "self_s":
            if not self.boundaries[prefix].span:
                raise KeyError(f"{prefix} is counted, not timed")
            return sum(s["self_s"][prefix] for s in summaries) / len(summaries)
        if suffix == "nonzero_frac":
            subsets = counters.get(prefix + ".subsets", 0)
            return counters.get(prefix + ".nonzero", 0) / subsets if subsets else 0.0
        return counters.get(name, 0)
