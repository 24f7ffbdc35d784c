"""Command-line front end: constants, assumption checks, saddle search, verify.

Four subcommands orchestrate the library with machine-readable outputs:

``constants``
    Dimension-dependent energy constants from closed forms
    -> ``constants.json``.
``assumptions``
    Kernel hypothesis checks on the ball (axis convexity of the diagonal,
    boundary behaviour, directional monotonicity) -> ``assumptions.json``;
    exit 3 if any check fails.
``saddle``
    Full reduced-energy pipeline: spacing search and damped Newton from the
    scaling-family start on the unit ball, mapped onto the configured ball by
    dilation, bracket verification and stationarity identities ->
    ``saddle.json`` (optional per-iteration ``trace.csv``); exit 4, with no
    report, when the critical point found is not of max-min type (Hessian
    inertia other than (2k-1, 1, 0)).
``verify``
    Grid and quadrature verification in any N at a saddle configuration
    (inline, else ``saddle.json`` of the same ball): projection rate, residual
    comparisons, and the energy-expansion gap over the eps list (at least
    two distinct values) -> ``verify.json``.

Configuration comes from defaults, then an optional JSON file (``--config``),
then explicit flags; every run writes ``{"meta": ..., "report": ...}`` under
``--out`` with a stable filename.  Reruns with identical configuration and
seed produce byte-identical reports except for the timestamp line in the
metadata.  Exit codes: 0 success, 1 configuration error, 3 assumption
failure, 4 solver failure, 5 resolution guard.

Each subcommand imports the library modules it runs when it starts, so a
process loads only those: ``constants`` loads no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .errors import (
    ConfigurationError,
    NodalBubblesError,
    ParameterError,
    ResolutionError,
    SearchError,
    SolverDivergenceError,
    _require_int,
    _require_real,
    _require_reals,
)

__all__ = ["RunConfig", "main", "cmd_constants", "cmd_assumptions",
           "cmd_saddle", "cmd_verify"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4
EXIT_RESOLUTION = 5


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    dim: int = 3
    radius: float = 1.0
    center: tuple | None = None   # None = origin of the configured dimension
    eps: tuple = (0.1, 0.05, 0.025)
    tol: float = 1.0e-8
    max_iter: int = 50
    grid_nz: int = 513
    grid_nr: int = 257
    seed: int = 0
    out: str = "."
    format: str = "json"
    trace: bool = False
    configuration: dict | None = None

    def __post_init__(self):
        # The library's rules, so every number is finite and fits a double;
        # radius and tol are checked, not converted: an integer stays one.
        _require_int("dimension N", self.dim, 3, ConfigurationError)
        from .bubble_core import compute_constants
        try:    # one dimension range for every subcommand
            compute_constants(self.dim)
        except ParameterError as e:
            raise ConfigurationError(f"dim={self.dim} is too large: {e}") from e
        for name, least in (("max_iter", 1), ("grid_nz", 5), ("grid_nr", 5),
                            ("seed", 0)):
            _require_int(name, getattr(self, name), least, ConfigurationError)
        for name in ("radius", "tol"):
            _require_real(name, getattr(self, name), error=ConfigurationError)
        object.__setattr__(self, "center", (0.0,) * self.dim
                           if self.center is None else _require_reals(
                               "center", self.center, self.dim, False,
                               ConfigurationError))
        eps = _require_reals("eps", self.eps, error=ConfigurationError)
        if not eps or any(e >= 1.0 for e in eps):
            raise ConfigurationError(
                f"eps values must lie in (0, 1), got {self.eps!r}")
        object.__setattr__(self, "eps", tuple(sorted(set(eps), reverse=True)))
        if not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a string, got {self.out!r}")
        if self.format not in ("json", "csv"):
            raise ConfigurationError(
                f"format must be 'json' or 'csv', got {self.format!r}")
        if not isinstance(self.trace, bool):
            raise ConfigurationError(
                f"trace must be true or false, got {self.trace!r}")
        if self.configuration is not None:
            from .reduced_energy import Configuration
            try:
                Configuration.from_json_dict(self.configuration)
            except ParameterError as e:
                raise ConfigurationError(f"configuration: {e}") from e

    def domain(self):
        """The configured ball (a :class:`~.green_domain.BallDomain`)."""
        from .green_domain import BallDomain
        return BallDomain(N=self.dim, center=self.center, radius=self.radius)

    def to_json_dict(self) -> dict:
        """Every field by name; tuples are written as JSON lists."""
        return asdict(self)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _read_json(path, what: str) -> dict:
    """The JSON object held by the file ``path``; a ConfigurationError naming
    the file when it cannot be opened, decoded or parsed, or holds no object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:   # JSONDecodeError, bad UTF-8
        raise ConfigurationError(f"cannot read {what} {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} {path} must hold a JSON object")
    return data


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then JSON file values, then explicit flag overrides."""
    data = {} if path is None else _read_json(path, "config file")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown config keys {sorted(unknown)}; "
            f"known keys: {sorted(_CONFIG_KEYS)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in data.items()})


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def write_report(name: str, report: dict, config: RunConfig) -> Path:
    """Write ``{"meta", "report"}`` JSON (and a CSV twin when asked).

    numpy scalars and arrays are written as Python values.  Both texts are
    complete before any file is opened, so a report that JSON cannot hold
    (NaN, infinity) raises ValueError and leaves no file behind.
    """
    payload = {
        "meta": {
            "command": name,
            "package": "nodalbubbles",
            "version": __version__,
            "seed": config.seed,
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "effective_config": config.to_json_dict(),
        },
        "report": report,
    }
    plain = lambda x: x.tolist()    # numpy scalars and arrays
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=plain) + "\n"
    rows: list = []
    if config.format == "csv":    # insertion order: no sort_keys here
        _flatten("", json.loads(json.dumps(report, default=plain)), rows)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    if config.format == "csv":
        _write_csv(out_dir / f"{name}.csv", ["key", "value"],
                   ([key, "" if value is None else repr(value)]
                    for key, value in rows))
    return path


def _write_csv(path: Path, header: list, rows) -> None:
    """Write ``header`` then ``rows`` as one CSV file: UTF-8, ``newline=""``.
    The csv module is imported here, so a run that writes no CSV loads none."""
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_constants(config: RunConfig) -> int:
    """Energy constants for the configured dimension -> constants.json."""
    from .bubble_core import compute_constants
    table = compute_constants(config.dim)
    write_report("constants", table.to_json_dict(), config)
    return EXIT_OK


def cmd_assumptions(config: RunConfig) -> int:
    """Kernel hypothesis checks on the ball -> assumptions.json; 3 on failure."""
    from .green_domain import (AxisSection, check_boundary_expansion,
                               check_directional_monotonicity, validate_A3)
    domain = config.domain()
    checks = list(validate_A3(domain, AxisSection.of_ball(domain)))
    checks.extend(check_boundary_expansion(domain))
    checks.append(check_directional_monotonicity(domain, seed=config.seed))
    report = {
        "checks": [c.to_json_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    write_report("assumptions", report, config)
    return EXIT_OK if report["all_passed"] else EXIT_ASSUMPTION


def cmd_saddle(config: RunConfig) -> int:
    """Spacing search and Newton on the unit ball (``--tol`` and
    ``grad_norm`` refer to it); the dilation x -> c + R x maps t -> c_1 + R t
    and Lambda -> R^{(N-2)/2} Lambda and shifts values by -k (N-2)/2 log R.
    Bracket and identity checks run on the configured ball."""
    import numpy as np

    from .green_domain import AxisKernels, BallDomain
    from .reduced_energy import (base_spacing_points, bounds_report,
                                 find_t0_r0, mu_embed)
    from .saddle_solver import (solve_saddle, stationarity_identities,
                                verify_bounds)
    domain = config.domain()
    N, R, c1 = domain.N, domain.radius, domain.center[0]
    unit = BallDomain.unit(N)
    t0, r0 = find_t0_r0(unit)
    init = mu_embed(1.0, 1.0, 1.0, base_spacing_points(t0, r0))
    report = solve_saddle(unit, None, init, tol=config.tol,
                          max_iter=config.max_iter)
    expected = (2 * init.k - 1, 1, 0)
    if tuple(report.inertia) != expected:
        raise SolverDivergenceError(
            f"critical point is not of max-min type: Hessian inertia "
            f"{tuple(report.inertia)}, expected {expected}")
    scale, shift = R ** ((N - 2) / 2.0), init.k * (N - 2) / 2.0 * math.log(R)
    L, t = np.array(report.config.Lambda), np.array(report.config.t)
    report.config = report.config.with_params(Lambda=scale * L, t=c1 + R * t)
    report.value -= shift
    report.trace = [(i, v - shift, g, s) for i, v, g, s in report.trace]
    t0, r0 = c1 + R * t0, R * r0
    bounds = bounds_report(domain, None, t0, r0)
    verify_bounds(report, bounds)
    ids = stationarity_identities(report.config, AxisKernels.for_ball(domain))
    payload = {
        "t0": t0,
        "r0": r0,
        "bounds": bounds.to_json_dict(),
        "saddle": report.to_json_dict(),
        "stationarity_identities": list(ids),
        "identities_max_deviation": float(np.max(np.abs(ids - 1.0))),
    }
    write_report("saddle", payload, config)
    if config.trace:    # the psi_tilde column holds Psi_k for any k
        _write_csv(Path(config.out) / "trace.csv",
                   ["iter", "psi_tilde", "grad_norm", "step"],
                   ([i, *(f"{x:.17g}" for x in row)]
                    for i, *row in report.trace))
    return EXIT_OK


def _verify_configuration(config: RunConfig):
    """The configuration under test, a reduced-energy ``Configuration``:
    inline, else saddle.json of this ball."""
    from .reduced_energy import Configuration
    saddle_path = Path(config.out) / "saddle.json"
    if config.configuration is not None:
        return Configuration.from_json_dict(config.configuration)
    if saddle_path.exists():
        data = _read_json(saddle_path, "saddle report")
        try:
            ball = {k: data["meta"]["effective_config"][k]
                    for k in ("dim", "radius", "center")}
            cfg = Configuration.from_json_dict(
                data["report"]["saddle"]["config"])
        except (KeyError, TypeError) as e:
            raise ConfigurationError(
                f"{saddle_path} does not hold a saddle report") from e
        run = dict(dim=config.dim, radius=config.radius, center=[*config.center])
        if ball != run:
            raise ConfigurationError(
                f"{saddle_path} was written for {ball}, not for {run}")
        return cfg
    raise ConfigurationError(
        "verify needs a configuration: run the saddle command first "
        "(saddle.json in the output directory) or supply 'configuration' "
        "in the config file")


def cmd_verify(config: RunConfig) -> int:
    """Projection rate, residuals, expansion gap in any N -> verify.json."""
    import numpy as np

    from .bubble_core import compute_constants
    from .pde_harness import (AxisymGrid, BubbleParams, bubble_profile,
                              expansion_gap, project_bubble,
                              require_core_resolution, residual_norm,
                              residual_quadrature)
    domain = config.domain()
    grid = AxisymGrid.for_ball(domain, nz=config.grid_nz, nr=config.grid_nr)
    # Every guard before any solve: BubbleParams holds each eps below 2* - 2
    # and the grid resolves the probe's core at it; the gap has at least two
    # eps.  The probe is lam = R, the unit ball's lam = 1 bubble dilated.
    params = [BubbleParams(N=domain.N, eps=eps, lam=domain.radius,
                           xi=domain.center) for eps in config.eps]
    for p in params:
        require_core_resolution(grid, p.core_width)
    if len(params) < 2:
        raise ConfigurationError(
            "verify needs at least two distinct eps values for the "
            f"expansion gap, got eps={list(config.eps)}")
    table = compute_constants(domain.N)
    cfg = _verify_configuration(config)

    # Per eps: the projection rate ||PU - U||_inf / sqrt(eps), the grid
    # residual of the same projection, and the quadrature relative residual
    # of the configuration under test.  The sup is the probe's value at the
    # staircase-boundary node nearest the center, its largest there: PU is 0
    # on that boundary, and inside |PU - U| is the discrete harmonic
    # correction, which the maximum principle bounds by it.
    d2 = float(np.min((grid.z_offsets[:, None] ** 2
                       + grid.r_nodes ** 2)[grid.boundary]))
    rate_rows = []
    residual_rows = []
    for eps, p in zip(config.eps, params):
        diff = float(bubble_profile(domain.N, p.core_width, d2))
        rate_rows.append({"eps": eps, "sup_diff": diff,
                          "rate_constant": diff / math.sqrt(eps)})
        residual_rows.append({
            "eps": eps,
            "grid_relative": residual_norm(project_bubble(domain, p, grid),
                                           eps, relative=True),
            "config_quadrature_relative": residual_quadrature(
                domain, cfg, table, eps),
        })
    consts = [r["rate_constant"] for r in rate_rows]
    rate_stable = max(consts) / min(consts) <= 2.0

    gap = expansion_gap(cfg, list(config.eps), table, domain=domain)

    report = {
        "configuration": cfg.to_json_dict(),
        "projection_rate": {"rows": rate_rows,
                            "constant_stable_within_factor_2": rate_stable},
        "residuals": residual_rows,
        "expansion_gap": gap,
    }
    write_report("verify", report, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "constants": (cmd_constants, "dimension-dependent energy constants"),
    "assumptions": (cmd_assumptions, "kernel hypothesis checks on the ball"),
    "saddle": (cmd_saddle, "reduced-energy saddle pipeline"),
    "verify": (cmd_verify, "grid/quadrature verification at a configuration"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalbubbles",
        description=("Finite-dimensional reduction toolkit for slightly "
                     "subcritical multi-bubble problems on balls"))
    sub = parser.add_subparsers(dest="command", required=True)
    d = RunConfig
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--dim", type=int, default=None,
                       help=f"ambient dimension N (default {d.dim})")
        p.add_argument("--radius", type=float, default=None,
                       help=f"ball radius (default {d.radius:g})")
        p.add_argument("--eps", type=float, action="append", default=None,
                       help="subcriticality value; repeatable "
                            f"(default {' '.join(map(str, d.eps))})")
        p.add_argument("--tol", type=float, default=None,
                       help=f"solver gradient tolerance (default {d.tol:g})")
        p.add_argument("--grid-nz", dest="grid_nz", type=int, default=None,
                       help=f"axial grid nodes (default {d.grid_nz})")
        p.add_argument("--grid-nr", dest="grid_nr", type=int, default=None,
                       help=f"radial grid nodes (default {d.grid_nr})")
        p.add_argument("--seed", type=int, default=None,
                       help=f"random seed for sampled checks (default {d.seed})")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default current directory)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="also write flattened CSV twins of the reports")
        p.add_argument("--trace", action="store_const", const=True,
                       default=None, help="write per-iteration trace.csv "
                                          "(saddle command)")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with run configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    try:
        config = load_run_config(args.config, overrides)
        return _COMMANDS[args.command][0](config)
    except ResolutionError as e:    # its message names the grid needed
        print(f"resolution error: {e}", file=sys.stderr)
        return EXIT_RESOLUTION
    except (SolverDivergenceError, SearchError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except NodalBubblesError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
