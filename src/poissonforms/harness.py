"""Experiment runner: named experiments over the shipped batteries, strict
JSON config handling, and JSON/CSV persistence.

The config file is a single JSON object; every key has an explicit default
and unknown keys are rejected (with the offending line when it can be found
in the file).  CLI flags override file values, and the fully resolved config
is echoed into every output record, so a record is always reproducible from
itself: identical resolved configs reproduce identical numbers, stream by
stream (random streams are keyed by task labels, never by scheduling order).
The Monte Carlo rows of one experiment on one window share one batch, so they
are dependent, but each row is still a mean over ``n_samples`` independent
configurations and its gate keeps its size.

The JSON record is canonical except for the trailing "timing" block, which
holds measured wall-clock and is naturally volatile; `RunRecord.canonical_json`
omits it for byte-level comparisons.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import batteries as bat
from .forms import BatchEval
from .operators import (
    adjointness_check,
    dd_zero_check,
    dirichlet_check,
    factorization_check,
    ibp_check,
    lift_batch,
    weitzenbock_check,
)
from .pointprocess import (
    Configuration,
    RngStream,
    expect_series,
    laplace_check,
    mecke_check,
    sample_batch,
    sample_views,
)
from .report import CheckResult, McEstimate
from .stochastic import (
    SdeConfig,
    curvature_potential,
    domination_check,
    eigen_decay_check,
    frame_bound_check,
    generator_check,
    generator_check_function,
    poisson_invariance_check,
    semigroup_property_check,
    sphere_uniform_check,
    zero_potential,
)

__all__ = [
    "ConfigError",
    "RunRecord",
    "EXPERIMENTS",
    "resolve_config",
    "run_experiment",
    "emit",
    "main",
]


class ConfigError(ValueError):
    """Config schema violation; the message carries the file line if known."""


# every key, its type, and its default; this *is* the schema
_SCHEMA: dict[str, tuple[type, object]] = {
    "experiment": (str, None),
    "n_samples": (int, 100_000),
    "seed": (int, 42),
    "n_configs": (int, 50),
    "t_grid": (list, [0.25, 0.5]),
    "generator_ts": (list, [0.02, 0.01, 0.005]),
    "dt": (float, 0.01),
    "with_sphere": (bool, True),
    "out": ((str, type(None)), None),
    "format": (str, "json"),
}

# tolerances of the deterministic rows (residuals of exact identities) on
# flat space and on the sphere
_DET_TOL = 1e-8
_SPHERE_TOL = 1e-4

_CHOICES = {
    "format": ("json", "csv"),
}

# the least value of each integer key: a mean needs two samples for its
# standard error (``dt`` must be positive)
_LEAST = {"n_samples": 2, "n_configs": 1, "seed": 0}


def _line_of(text: str | None, key: str) -> str:
    if text is None:
        return ""
    for i, line in enumerate(text.splitlines(), 1):
        if f'"{key}"' in line:
            return f" (line {i})"
    return ""


def _check_entry(key: str, value, text: str | None):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}{_line_of(text, key)}")
    want, _ = _SCHEMA[key]
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if want is int and isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be an integer{_line_of(text, key)}")
    if not isinstance(value, want):
        names = want.__name__ if isinstance(want, type) else "/".join(
            t.__name__ for t in want
        )
        raise ConfigError(
            f"key {key!r} must be {names}, got {type(value).__name__}"
            f"{_line_of(text, key)}"
        )
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(
            f"key {key!r} must be one of {list(_CHOICES[key])}, got {value!r}"
            f"{_line_of(text, key)}"
        )
    if key in _LEAST and value < _LEAST[key]:
        raise ConfigError(f"key {key!r} must be at least {_LEAST[key]}, got {value!r}"
                          f"{_line_of(text, key)}")
    if key == "dt" and not value > 0:
        raise ConfigError(f"key 'dt' must be positive, got {value!r}{_line_of(text, key)}")
    if key in ("t_grid", "generator_ts"):
        if not value or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) and t > 0
            for t in value
        ):
            raise ConfigError(
                f"key {key!r} must be a non-empty list of positive numbers"
                f"{_line_of(text, key)}"
            )
        value = [float(t) for t in value]
        if key == "generator_ts" and len(set(sorted(value)[:2])) < 2:
            raise ConfigError(f"key 'generator_ts' needs its two smallest horizons "
                              f"distinct{_line_of(text, key)}")
    return value


def resolve_config(
    experiment: str,
    file_values: dict | None = None,
    file_text: str | None = None,
    overrides: dict | None = None,
) -> dict:
    """Merge defaults <- config file <- CLI overrides, validating strictly.
    The result spells out every key of the schema."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    resolved = {k: default for k, (_, default) in _SCHEMA.items()}
    resolved["experiment"] = experiment
    for src, text in ((file_values or {}, file_text), (overrides or {}, None)):
        for key, value in src.items():
            if value is None and key in ("out",):
                continue
            resolved[key] = _check_entry(key, value, text)
    if (
        "experiment" in (file_values or {})
        and file_values["experiment"] != experiment
    ):
        raise ConfigError(
            f"config file names experiment {file_values['experiment']!r} but "
            f"{experiment!r} was requested{_line_of(file_text, 'experiment')}"
        )
    resolved["experiment"] = experiment
    return resolved


def load_config_file(path: str) -> tuple[dict, str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        values = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    return values, text


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    """One experiment run: resolved config, check rows, versions, timing."""

    experiment: str
    config: dict
    checks: list[dict]
    versions: dict
    wall_clock: float

    @property
    def passed(self) -> bool:
        return all(row["pass"] for row in self.checks)

    def to_dict(self, with_timing: bool = True) -> dict:
        out = {
            "experiment": self.experiment,
            "passed": self.passed,
            "config": {k: self.config[k] for k in _SCHEMA},
            "versions": self.versions,
            "checks": self.checks,
        }
        if with_timing:
            out["timing"] = {"wall_clock_s": self.wall_clock}
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization: the volatile timing block is omitted,
        everything else is reproduced byte for byte by an identical rerun."""
        return json.dumps(self.to_dict(with_timing=False), indent=2) + "\n"

    def json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        d = json.loads(text)
        return cls(
            experiment=d["experiment"],
            config=d["config"],
            checks=d["checks"],
            versions=d["versions"],
            wall_clock=d.get("timing", {}).get("wall_clock_s", 0.0),
        )


def _versions() -> dict:
    from . import __version__

    try:  # a test dependency: null where it is not installed
        import scipy
    except ImportError:
        scipy = None
    return {
        "poissonforms": __version__,
        "numpy": np.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "python": platform.python_version(),
    }


def _row(result: CheckResult) -> dict:
    row = {**result.as_row(), "kind": result.kind}
    if result.detail:
        row["detail"] = json.dumps(result.detail, sort_keys=True)
    return row


# ---------------------------------------------------------------------------
# experiments


def _exp_laplace(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    battery = bat.laplace_battery()
    out = []
    # one batch per window, drawn from the stream of its first row
    for w in dict.fromkeys(w for _, _, w in battery):
        rows = [(nm, f) for nm, f, wi in battery if wi == w]
        out += laplace_check(sp, inten, w or win, rows, rng.child("laplace", rows[0][0]),
                             cfg["n_samples"])
    return out


def _exp_series(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten = bat.default_space(), bat.default_intensity()
    win = bat.series_window()
    out = []
    for case in bat.series_battery():
        sr = expect_series(sp, inten, win, case.outer, case.inners, case.envelope)
        stats = sample_views(sp, inten, win, rng.child("series", case.name), cfg["n_samples"],
                             lambda b: np.column_stack(
                                 [b.segment_sum(f.value_batch(b.points)) for f in case.inners]))
        est = McEstimate.from_samples(np.asarray(case.outer(stats), dtype=float))
        out.append(CheckResult.judged(
            "two-sided", f"series-{case.name}", est.mean, sr.value, est.stderr,
            3.0 * est.stderr + sr.tail_bound,
            detail={
                "tail_bound": sr.tail_bound,
                "k_max": len(sr.terms) - 1,
                "certified": sr.certified,
                "max_degree": list(sr.max_degree),
                "chop_bound": sr.chop_bound,
            },
        ))
    return out


def _exp_mecke(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    fns = bat.mecke_battery()
    out = []
    for fn, r in zip(fns, mecke_check(sp, inten, win, fns, rng.child("mecke", fns[0].name),
                                      cfg["n_samples"])):
        out.append(r)
        if fn.name == "phi-pi":
            est = McEstimate(r.lhs, r.stderr, cfg["n_samples"])
            out.append(CheckResult.from_estimates("mecke-phi-quadrature-pi", est,
                                                  McEstimate.exact(math.pi)))
    return out


def _exp_ibp(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    return ibp_check(sp, inten, win, bat.ibp_battery(), rng.child("ibp", 0), cfg["n_samples"])


def _exp_dirichlet(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    out = [dirichlet_check(sp, inten, win, F1, F2, rng.child("dir0", i), level="bochner",
                           n_samples=cfg["n_samples"],
                           name=f"dirichlet-functions-{F1.name}-{F2.name}")
           for i, (F1, F2) in enumerate(bat.function_pairs())]
    n_forms = max(1500, cfg["n_samples"] // 33)
    out += [dirichlet_check(sp, inten, win, W1, W2, rng.child("dir1", level, i), level=level,
                            n_samples=n_forms)
            for level in ("bochner", "deRham") for i, (W1, W2) in enumerate(bat.form_pairs())]
    # eigenform rows: deterministic residuals of the lifted operators
    W = bat.ou_eigenform()
    ev = BatchEval(sample_batch(sp, inten, win, rng.child("dir-eigen"), 20), sp.dim)
    v = ev.form(W)
    for kind, mult in (("bochner", 1.0), ("deRham", 2.0)):
        worst = float((lift_batch(kind, sp, inten, W, ev) - mult * v).norm().max())
        out.append(CheckResult.deterministic(f"eigenform-{kind}-x1dx1-times-{mult:g}", worst,
                                             0.0, _DET_TOL, detail={"configs": 20}))
    # structure of the complex: d d = 0 and adjointness
    forms = bat.flat_form_battery()
    out += [dd_zero_check(sp, inten, win, W, rng.child("dd0", W.name), tol=1e-10) for W in forms]
    pairs = ((forms[0], forms[2]), (forms[1], forms[3]))
    return out + [adjointness_check(sp, inten, win, lo, hi, rng.child("adj", lo.name, hi.name),
                                    n_forms) for lo, hi in pairs]


def _exp_factorization(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    out = []
    for kind in ("bochner", "deRham"):
        for W in bat.flat_form_battery():
            out.append(
                factorization_check(kind, sp, inten, win, W,
                                    rng.child("fac", kind, W.name),
                                    n_trials=cfg["n_configs"], tol=_DET_TOL)
            )
    if cfg["with_sphere"]:
        ss, si, sw = bat.sphere_space(), bat.sphere_intensity(), bat.full_window()
        for kind in ("bochner", "deRham"):
            for W in bat.sphere_form_battery():
                out.append(
                    factorization_check(kind, ss, si, sw, W,
                                        rng.child("fac-s", kind, W.name),
                                        n_trials=cfg["n_configs"],
                                        tol=_SPHERE_TOL,
                                        name=f"factorization-{kind}-sphere-{W.name}")
                )
    return out


def _exp_weitzenbock(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten, win = bat.default_space(), bat.default_intensity(), bat.full_window()
    out = [
        weitzenbock_check(sp, inten, win, W, rng.child("wb", W.name),
                          n_configs=cfg["n_configs"], tol=_DET_TOL)
        for W in bat.flat_form_battery()
    ]
    if cfg["with_sphere"]:
        ss, si = bat.sphere_space(), bat.sphere_intensity()
        out.extend(
            weitzenbock_check(ss, si, bat.full_window(), W, rng.child("wb-s", W.name),
                              n_configs=max(6, cfg["n_configs"] // 8),
                              tol=_SPHERE_TOL,
                              name=f"weitzenbock-sphere-{W.name}")
            for W in bat.sphere_form_battery()
        )
    return out


def _exp_semigroup_ou(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten = bat.default_space(), bat.default_intensity()
    W = bat.ou_eigenform()
    g1, g2 = (Configuration(p) for p in bat.flat_configs())
    n = max(2000, cfg["n_samples"] // 5)
    out = []
    for t in cfg["t_grid"]:
        run = SdeConfig(t=t, dt=cfg["dt"])
        out.append(
            eigen_decay_check(sp, inten, W, g1, t, 1.0, zero_potential(1), run, n,
                              rng.child("dec-b", int(round(1000 * t))),
                              name=f"ou-decay-bochner-t{t:g}")
        )
        out.append(
            eigen_decay_check(sp, inten, W, g1, t, 2.0,
                              curvature_potential(sp, inten, 1), run, n,
                              rng.child("dec-r", int(round(1000 * t))),
                              name=f"ou-decay-deRham-t{t:g}")
        )
    Jg = curvature_potential(sp, inten, 1, allow_scalar=False)
    run = SdeConfig(t=0.3, dt=cfg["dt"])
    out.append(frame_bound_check(sp, inten, g2, Jg, 1, run, 40, rng.child("frame")))
    out.append(
        domination_check(sp, inten, W, g2, 0.3, Jg, run,
                         max(500, cfg["n_samples"] // 100), rng.child("dom"))
    )
    G = bat.generator_functions()[0]
    out.append(
        semigroup_property_check(sp, inten, G, g1, 0.1, 0.15,
                                 SdeConfig(t=0.1, dt=0.005), 300, 300,
                                 rng.child("chapman"))
    )
    out.append(
        poisson_invariance_check(sp, inten, 0.3, run,
                                 max(1000, cfg["n_samples"] // 50),
                                 rng.child("invariance"))
    )
    if cfg["with_sphere"]:
        out.append(
            sphere_uniform_check(0.5, SdeConfig(t=0.5, dt=cfg["dt"]),
                                 min(cfg["n_samples"], 20000), rng.child("sphere-u"))
        )
    return out


def _exp_generator(cfg: dict, rng: RngStream) -> list[CheckResult]:
    sp, inten = bat.default_space(), bat.default_intensity()
    gammas = [Configuration(p) for p in bat.flat_configs()]
    W = bat.ou_eigenform()
    out = []
    for kind in ("bochner", "deRham"):
        rep = generator_check(sp, inten, W, gammas, kind,
                              ts=tuple(cfg["generator_ts"]),
                              n_samples=min(cfg["n_samples"], 20000),
                              rng=rng.child("gen", kind))
        out.extend(rep.checks)
    for G in bat.generator_functions():
        rep = generator_check_function(sp, inten, G, gammas,
                                       ts=tuple(cfg["generator_ts"]),
                                       n_samples=min(cfg["n_samples"], 20000),
                                       rng=rng.child("gen-fn", G.name))
        out.extend(rep.checks)
    return out


def _exp_acceptance(cfg: dict, rng: RngStream) -> list[CheckResult]:
    out = []
    for name, run in EXPERIMENTS.items():
        if run is not _exp_acceptance:
            out.extend(run(cfg, rng.child(name)))
    return out


EXPERIMENTS = {
    "laplace": _exp_laplace,
    "series-vs-mc": _exp_series,
    "mecke": _exp_mecke,
    "ibp": _exp_ibp,
    "dirichlet": _exp_dirichlet,
    "factorization": _exp_factorization,
    "weitzenbock": _exp_weitzenbock,
    "semigroup-ou": _exp_semigroup_ou,
    "generator": _exp_generator,
    "acceptance-all": _exp_acceptance,
}


def run_experiment(cfg: dict) -> RunRecord:
    """Execute the experiment named in the resolved config."""
    rng = RngStream(cfg["seed"])
    start = time.perf_counter()
    checks = EXPERIMENTS[cfg["experiment"]](cfg, rng)
    wall = time.perf_counter() - start
    return RunRecord(
        experiment=cfg["experiment"],
        config=cfg,
        checks=[_row(c) for c in checks],
        versions=_versions(),
        wall_clock=wall,
    )


# ---------------------------------------------------------------------------
# persistence


_CSV_FIELDS = ("check", "lhs", "rhs", "stderr", "tol", "kind", "pass")


def emit(record: RunRecord, fmt: str, out_path: str) -> None:
    """Write the record; JSON is the canonical form, CSV the flat table."""
    if fmt == "json":
        data = record.json()
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in record.checks:
            writer.writerow(row)
        data = buf.getvalue()
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonforms",
        description="Run the shipped verification experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root RNG seed")
        p.add_argument("--samples", type=int, default=None, dest="n_samples",
                       help="Monte Carlo sample count")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=None, choices=("json", "csv"),
                       help="output format (default json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values, file_text = ({}, None)
        if args.config:
            file_values, file_text = load_config_file(args.config)
        overrides = {
            k: v
            for k, v in (
                ("seed", args.seed),
                ("n_samples", args.n_samples),
                ("out", args.out),
                ("format", args.format),
            )
            if v is not None
        }
        cfg = resolve_config(args.experiment, file_values, file_text, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    record = run_experiment(cfg)
    for row in record.checks:
        status = "pass" if row["pass"] else "FAIL"
        print(f"[{status}] {row['check']}: lhs={row['lhs']:.6g} "
              f"rhs={row['rhs']:.6g} tol={row['tol']:.3g}")
    print(f"{record.experiment}: {sum(r['pass'] for r in record.checks)}"
          f"/{len(record.checks)} checks passed in {record.wall_clock:.1f}s")
    if cfg["out"]:
        emit(record, cfg["format"], cfg["out"])
        print(f"wrote {cfg['format']} record to {cfg['out']}")
    if not record.passed:
        for row in record.checks:
            if not row["pass"]:
                print(f"FAILED: {row}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
