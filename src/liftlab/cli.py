"""Command-line entry point.

Subcommands: `examples` replays the bundled worked scenarios and exits
0 iff every expected verdict and value matched; `lift` runs the full
lifting pipeline on a problem file plus a free-parameter file;
`bimodel`, `coiso`, and `dims` delegate to the respective modules.
Each subcommand takes only the flags it reads (``COMMANDS``), save
one: `lift` takes `--degree` and reads it nowhere, since the
benchmark's `lift_mult1_degree1024` operation passes it; it goes once
the benchmark stops passing it.  Any other flag is a usage error.
`--seed` draws the random problems of the `examples` scenarios that
use any (prop4_6), and `coiso` with a nonzero
seed twists the extension's fills by random unitaries, while
`coiso --seed 0` (the default) builds the basis-aligned extension.
`bimodel` draws nothing: its verdict is read off pointwise identities
of the symbol.  `--degree` and `--grid` take integers of at least 1,
`--seed` one of at least 0, `--tol-int` and `--tol-taylor` finite,
non-negative numbers; each command has its own default for the flag
left out, and the report's `config` records null for it.  ex3_1 is the
only scenario that reads `--degree`: no other one truncates a series.
The `config` echo lists every RunConfig field, at its default where the
command takes no such flag.

`lift` and prop4_6 decide a lifting the same way (``_decide_lifting``),
off one companion of its Schur symbol.  `lift` builds no lifting Y: it
reads `window_norm` off the window Gram matrix and `intertwining` off
the residual of the coupling identity (``criteria.intertwining_norm``),
both of the untruncated Y and both off one Stein sum, so its time and
memory do not depend on `--degree`.  An `expect` block that
``serialize`` cannot decode exits 2 like any other bad input.
Reports are deterministic JSON (identical config and seed give
byte-identical output); radial ladders and Taylor traces can be dumped
as CSV next to the report.

Every command runs its BLAS on one thread (``linalg.OneBlasThread``).

Exit codes: 0 expected verdicts matched, 1 verdict mismatch, 2 input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__, bimodel, clt, coiso, criteria, h2, linalg, serialize
from .h2 import MatPoly

SCENARIOS = ("ex3_1", "ex3_2", "rk3_1", "cor3_3", "prop4_6")


@dataclass
class RunConfig:
    command: str
    scenario: str | None = None
    input: str | None = None
    schur: str | None = None
    out: str | None = None
    csv: str | None = None
    degree: int | None = None
    grid: int | None = None
    ladder: tuple = criteria.DEFAULT_LADDER
    tol_int: float = criteria.TOL_INT
    tol_taylor: float = criteria.TOL_TAYLOR
    seed: int = 0

    def echo(self) -> dict:
        """Every field by name, read off the fields with no deep copy."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["ladder"] = list(self.ladder)
        d["version"] = __version__
        return d


def parse_ladder(text: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("ladder must be comma-separated numbers")
    if not values or any(not (0.0 < v < 1.0) for v in values):
        raise argparse.ArgumentTypeError("ladder values must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("ladder must be strictly increasing")
    return values


def int_at_least(floor: int):
    """An argparse type: an integer of at least `floor`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def tolerance(text: str) -> float:
    """A threshold flag: a finite, non-negative number, as `tol` in problem files."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite, non-negative number, got {text!r}")
    return value


def _given(value, default):
    """The flag's value when it was given, else the command's default."""
    return default if value is None else value


FLAG_OPTIONS = {
    "out": {"help": "write the JSON report here"},
    "csv": {"help": "prefix for ladder/trace CSV files"},
    "degree": {"type": int_at_least(1), "help": "truncation degree (lift accepts it and reads it nowhere)"},
    "grid": {"type": int_at_least(1), "help": "circle grid size"},
    "ladder": {"type": parse_ladder, "default": criteria.DEFAULT_LADDER},
    "tol-int": {"type": tolerance, "default": criteria.TOL_INT},
    "tol-taylor": {"type": tolerance, "default": criteria.TOL_TAYLOR},
    "seed": {"type": int_at_least(0), "default": 0},
}
# subcommand: (help, help of its --input file, the flags it reads and takes)
COMMANDS = {
    "examples": ("replay a bundled worked scenario", None, tuple(FLAG_OPTIONS)),
    "lift": ("run the lifting pipeline on a problem file", "problem JSON",
             ("out", "csv", "degree", "grid", "ladder", "tol-int", "tol-taylor")),
    "bimodel": ("verify the two-isometry model for a symbol", "symbol polynomial JSON", ("out", "degree", "grid")),
    "coiso": ("test and build a coisometric extension", "extension problem JSON", ("out", "seed")),
    "dims": ("kernel/defect dimension report for a problem", "problem JSON", ("out",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Numerics for contractive intertwining liftings and bi-isometry models",
    )
    parser.add_argument("--version", action="version", version=f"liftlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, input_help, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if input_help is None:
            p.add_argument("scenario", choices=SCENARIOS)
        else:
            p.add_argument("--input", required=True, help=input_help)
        if name == "lift":
            p.add_argument("--schur", help="free-parameter polynomial JSON (default zero)")
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAG_OPTIONS[flag])
    return parser


def config_from_args(args) -> RunConfig:
    """Every parsed value lands in the RunConfig field of its name; a
    flag the command does not take keeps the field's default."""
    return RunConfig(**vars(args))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_report(cfg: RunConfig, payload: dict):
    text = serialize.dumps_canonical(payload)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if cfg.csv:
        for rep in payload.get("reports", []):
            base = f"{cfg.csv}.{rep['criterion_id']}"
            if rep.get("rho_ladder"):
                lines = ["rho,value"] + [f"{r:.17g},{v:.17g}" for r, v in rep["rho_ladder"]]
                with open(base + ".rho.csv", "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            if rep.get("taylor_trace"):
                lines = ["n,value"] + [f"{int(n)},{v:.17g}" for n, v in rep["taylor_trace"]]
                with open(base + ".taylor.csv", "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")


def _finish(cfg: RunConfig, reports, values, checks) -> int:
    """Assemble the payload, write outputs, print a summary, set the code."""
    matched = all(ok for _, ok in checks)
    payload = {
        "command": cfg.command,
        "config": cfg.echo(),
        "values": values,
        "reports": [r.to_dict() for r in reports],
        "expected": {name: bool(ok) for name, ok in checks},
        "matched": matched,
    }
    _write_report(cfg, payload)
    tag = cfg.scenario or cfg.command
    for rep in reports:
        print(f"[{tag}] {rep.criterion_id}: {rep.verdict}" + (f"  ({rep.notes})" if rep.notes else ""))
    for key, val in values.items():
        print(f"[{tag}] {key} = {val}")
    for name, ok in checks:
        print(f"[{tag}] {'ok' if ok else 'MISMATCH'}: {name}")
    if cfg.out:
        print(f"[{tag}] report written to {cfg.out}")
    return 0 if matched else 1


def _decide_lifting(cfg: RunConfig, grid: int, problem: clt.CLTProblem, ld: clt.LiftingData,
                    r: MatPoly, comp: h2.Companion) -> tuple[list, tuple]:
    """The lifting check of the free parameter r, the obstruction search
    when r is constant and isometric, and ``criteria.window_gram_extremes``,
    all off the one companion `comp` of r's Schur symbol."""
    reports = [criteria.lifting_isometry_check(
        ld, r, comp, ladder=cfg.ladder, grid=grid, tol_int=cfg.tol_int, tol_taylor=cfg.tol_taylor,
    )]
    if r.degree == 0 and linalg.isometry_gap(r.coeffs[0]) <= criteria.PARAMETER_ISOMETRY_TOL:
        reports.append(criteria.obstruction_search(ld, r.coeffs[0], comp))
    return reports, criteria.window_gram_extremes(problem, ld, comp)


def _scenario_ex3_2(cfg: RunConfig) -> int:
    grid = _given(cfg.grid, 4096)
    w = MatPoly.constant([[0.5], [0.5]])
    comp = criteria.companion(w, grid=grid)
    d_vals = h2.resolvent_apply_grid(comp.a, [1.0], 1.0, grid)
    integrand = (1.0 - 0.25) * linalg.sq_norms(d_vals[:, 0], axis=())
    poisson = float(np.mean(integrand))
    hardy = float(criteria.hardy_gram(comp, np.eye(1))[0][0, 0].real)
    rep_bm = criteria.boundary_measure_check(w, grid=grid, ladder=cfg.ladder)
    rep_ri = criteria.radial_isometry_check(
        comp, grid=grid, ladder=cfg.ladder, tol_int=cfg.tol_int, tol_taylor=cfg.tol_taylor,
    )
    values = {"poisson_integral": poisson, "hardy_norm_sq": hardy}
    checks = [
        ("poisson integral equals 1 within 1e-9", abs(poisson - 1.0) <= 1e-9),
        ("coefficient norm equals 1/3 within 1e-9", abs(hardy - 1.0 / 3.0) <= 1e-9),
        ("boundary mass condition holds", rep_bm.extras["mass_verdict"] == "pass"),
        ("overall boundary criterion fails", rep_bm.verdict == "fail"),
        ("radial isometry criterion fails", rep_ri.verdict == "fail"),
    ]
    return _finish(cfg, [rep_bm, rep_ri], values, checks)


def split_measure_with_atom() -> h2.CircleMeasure:
    """Density 3/4 then 1/4 on the two half circles plus mass 1/2 at 1."""
    return h2.CircleMeasure(
        density_pieces=[(0.0, np.pi, 0.75), (np.pi, 2 * np.pi, 0.25)],
        point_masses=[(0.0, 0.5)],
    )


def _scenario_ex3_1(cfg: RunConfig) -> int:
    degree = _given(cfg.degree, 1024)
    grid = _given(cfg.grid, 4096)
    rho = cfg.ladder[-1]
    mu = split_measure_with_atom()
    u = h2.herglotz_from_measure(mu, degree)
    a = h2.herglotz_to_symbol(u, degree)
    a_vals = h2.eval_circle_grid(a, rho, grid)[:, 0, 0]
    m = np.sqrt(np.clip(1.0 - linalg.sq_norms(a_vals, axis=()), 0.0, None))
    # degree capped so the stacked symbol stays resolvable on this grid
    outer = h2.outer_from_boundary_modulus(m, grid // 2 - 1)
    b_vals = np.exp(h2.unit_circle_values(outer.log_coeffs, grid))
    w = h2.vstack_polys(a, outer.poly)
    exclusions = [(0.0, "atom"), (np.pi, "jump")]
    rep = criteria.boundary_measure_check(w, grid=grid, ladder=cfg.ladder, exclusions=exclusions)
    integral = rep.extras["mass_ladder"][-1][1]
    theta = 2 * np.pi * np.arange(grid) / grid
    spacing = 2 * np.pi / grid
    safe = np.ones(grid, dtype=bool)
    for point in (0.0, np.pi):
        delta = np.abs((theta - point + np.pi) % (2 * np.pi) - np.pi)
        safe &= delta >= spacing * (1 - 1e-12)
    moduli_sq = linalg.sq_norms(a_vals[safe], axis=()) + linalg.sq_norms(b_vals[safe], axis=())
    pythagoras = float(np.max(np.abs(moduli_sq - 1.0)))
    # density probes go through the symbol, whose coefficients decay;
    # the Herglotz series itself has non-decaying coefficients (the atom)
    # and cannot be summed accurately this close to the boundary
    probes = {}
    for angle, target in ((np.pi / 2, 0.75), (3 * np.pi / 2, 0.25)):
        z = rho * np.exp(1j * angle)
        av = a(z)[0, 0]
        val = float((1.0 - abs(av) ** 2) / abs(1.0 - z * av) ** 2)
        probes[f"density_at_{angle:.4f}"] = (val, target)
    values = {
        "boundary_integral": float(integral),
        "pythagoras_residual": pythagoras,
        "herglotz_at_zero": float(np.real(u(0.0)[0, 0])),
        **{k: v[0] for k, v in probes.items()},
    }
    checks = [
        ("boundary integral equals 1/2 within 1e-2", abs(integral - 0.5) <= 1e-2),
        ("|a|^2 + |b|^2 equals 1 within 1e-6 off the jumps", pythagoras <= 1e-6),
        ("mass check fails (singular part escapes)", rep.extras["mass_verdict"] == "fail"),
        ("overall boundary criterion fails", rep.verdict == "fail"),
    ]
    for key, (val, target) in probes.items():
        checks.append((f"{key} near {target} within 1e-3", abs(val - target) <= 1e-3))
    return _finish(cfg, [rep], values, checks)


def _scenario_rk3_1(cfg: RunConfig) -> int:
    grid = _given(cfg.grid, 256)
    comp = criteria.companion(MatPoly.constant([[1.0], [0.0]]), grid=grid)
    rep_ri = criteria.radial_isometry_check(
        comp, grid=grid, ladder=cfg.ladder, tol_int=cfg.tol_int, tol_taylor=cfg.tol_taylor,
    )
    rep_cs = criteria.constant_symbol_check(comp)
    problem = clt.build_problem(np.eye(1), np.eye(1), np.zeros((1, 1)))
    ld = clt.build_omega(problem)
    # the zero parameter: its symbol W is the coupling itself
    comp_ob = criteria.companion(clt.assemble_schur_W(ld, None), ld.basis_tprime.dim)
    rep_ob = criteria.obstruction_search(ld, np.zeros((ld.ker_omega_star.dim, ld.ker_omega.dim)), comp_ob)
    trace = [v for _, v in rep_ri.taylor_trace]
    lam = complex(*rep_ob.extras["lambda"]) if "lambda" in rep_ob.extras else None
    values = {
        "taylor_trace_spread": float(max(trace) - min(trace)),
        "witness_lambda": serialize.encode_complex(lam) if lam is not None else None,
    }
    checks = [
        ("radial isometry criterion fails", rep_ri.verdict == "fail"),
        ("taylor trace is flat", max(trace) - min(trace) <= 1e-12),
        ("constant-symbol criterion fails", rep_cs.verdict == "fail"),
        ("obstruction witness found", rep_ob.verdict == "fail"),
        ("witness eigenvalue is 1", lam is not None and abs(lam - 1.0) <= 1e-9),
    ]
    return _finish(cfg, [rep_ri, rep_cs, rep_ob], values, checks)


def _scenario_cor3_3(cfg: RunConfig) -> int:
    grid = _given(cfg.grid, 512)
    a0 = np.array([[0.5, 0.3], [0.0, -0.4]])
    w0 = np.vstack([a0, linalg.defect(a0)])
    comp = criteria.companion(MatPoly.constant(w0), grid=grid)
    rep_cs = criteria.constant_symbol_check(comp)
    rep_ri = criteria.radial_isometry_check(
        comp, grid=grid, ladder=cfg.ladder, tol_int=cfg.tol_int, tol_taylor=cfg.tol_taylor,
    )
    hardy, _ = criteria.hardy_gram(comp, np.eye(2))
    worst = float(np.max(np.abs(np.diag(hardy).real - 1.0)))
    values = {"hardy_norm_deviation": worst, "spectral_radius": rep_cs.extras["spectral_radius"]}
    checks = [
        ("constant-symbol criterion passes", rep_cs.verdict == "pass"),
        ("radial isometry criterion passes", rep_ri.verdict == "pass"),
        ("coefficient norms reproduce the input norm within 1e-6", worst <= 1e-6),
    ]
    return _finish(cfg, [rep_cs, rep_ri], values, checks)


def _scenario_prop4_6(cfg: RunConfig) -> int:
    grid = _given(cfg.grid, 512)
    rng = np.random.default_rng(cfg.seed)
    reports, checks = [], []
    values = {}
    for mult in (1, 2):
        p_dim = mult + 1
        raw = rng.standard_normal((p_dim, p_dim)) + 1j * rng.standard_normal((p_dim, p_dim))
        t_prime = raw * (0.8 / np.linalg.norm(raw, 2))
        problem = clt.shift_intertwining_problem(rng, mult, 24, t_prime, x_norm=0.9)
        ld = clt.build_omega(problem)
        ld_exp = replace(ld, omega_bar=clt.explicit_coupling(problem))
        agree = linalg.operator_norm(clt.omega_full(ld) - clt.omega_full(ld_exp))
        k, ks = ld.ker_omega.dim, ld.ker_omega_star.dim
        raw_r = rng.standard_normal((ks, k)) + 1j * rng.standard_normal((ks, k))
        q, _ = np.linalg.qr(raw_r)
        r0 = MatPoly.constant(q[:, :k])
        comp = criteria.companion(clt.assemble_schur_W(ld, r0), ld.basis_tprime.dim, grid=grid)
        reps, (low, top, converged) = _decide_lifting(cfg, grid, problem, ld, r0, comp)
        for rep in reps:
            rep.criterion_id += f"_mult{mult}"
        dev = max(abs(math.sqrt(max(top, 0.0)) - 1.0), abs(1.0 - math.sqrt(max(low, 0.0))))
        # the 20 window vectors the sampled check drew: the mult-2 problem stays as it was
        rng.standard_normal(40 * problem.window_dim)
        reports += reps
        values[f"mult{mult}_coupling_agreement"] = agree
        values[f"mult{mult}_isometry_deviation"] = dev
        values[f"mult{mult}_hardy_converged"] = converged
        # r0 is an isometry, so the obstruction search ran
        checks += [
            (f"mult {mult}: lifting isometry criterion passes", reps[0].verdict == "pass"),
            (f"mult {mult}: no obstruction witness", [rep.verdict for rep in reps[1:]] == ["pass"]),
            (f"mult {mult}: lifted map is isometric within 1e-4", converged and dev <= 1e-4),
            (f"mult {mult}: coupling constructions agree within 1e-8", agree <= 1e-8),
        ]
    return _finish(cfg, reports, values, checks)


_SCENARIO_FUNCS = {
    "ex3_1": _scenario_ex3_1,
    "ex3_2": _scenario_ex3_2,
    "rk3_1": _scenario_rk3_1,
    "cor3_3": _scenario_cor3_3,
    "prop4_6": _scenario_prop4_6,
}


def _cmd_lift(cfg: RunConfig) -> int:
    doc = _load_json(cfg.input)
    problem = serialize.decode_problem(doc)
    expect = serialize.decode_expect(doc, "lift")
    r = serialize.decode_matpoly(_load_json(cfg.schur)) if cfg.schur else None
    grid = _given(cfg.grid, 512)
    try:
        ld = clt.build_omega_explicit(problem)
        route = "explicit"
    except clt.DefectSingular:
        ld = clt.build_omega(problem)
        route = "definitional"
    if r is None:
        r = MatPoly.zero(ld.ker_omega_star.dim, ld.ker_omega.dim)
    # one ladder of A and one Stein sum serve the checks, the window norm and the residual
    comp = criteria.companion(clt.assemble_schur_W(ld, r), ld.basis_tprime.dim, grid=grid)
    reports, (_, top, converged) = _decide_lifting(cfg, grid, problem, ld, r, comp)
    intertwining = criteria.intertwining_norm(problem, ld, comp)
    window_norm = math.sqrt(max(top, 0.0))
    dims = clt.dims_report(ld, problem)
    values = {"coupling_route": route, "intertwining": intertwining, "window_norm": window_norm,
              "hardy_converged": converged, **dims.to_dict()}
    checks = [
        ("lifting intertwines on the window", intertwining <= 1e-8),
        ("lifting is contractive on the window", window_norm <= 1.0 + 1e-8),
    ]
    verdicts = {rep.criterion_id: rep.verdict for rep in reports}
    checks += [(f"expected {cid} = {want}", verdicts.get(cid) == want) for cid, want in expect.items()]
    return _finish(cfg, reports, values, checks)


def _cmd_bimodel(cfg: RunConfig) -> int:
    doc = _load_json(cfg.input)
    if not isinstance(doc, dict):
        raise serialize.SchemaError("$", "symbol file must be an object")
    if "coeffs" in doc:
        theta = serialize.decode_matpoly(doc)
    else:
        theta = serialize.decode_matpoly(doc.get("symbol"), "$.symbol")
    want = serialize.decode_expect(doc, "bimodel")
    grid = _given(cfg.grid, 256)
    degree = _given(cfg.degree, 64)
    model = bimodel.build_model(theta, grid, degree)
    rep = bimodel.verify_bi_isometry(model)
    checks = [(f"model verification = {want}", rep.verdict == want)]
    return _finish(cfg, [rep], {"grid": grid, "degree": degree}, checks)


def _cmd_coiso(cfg: RunConfig) -> int:
    doc = _load_json(cfg.input)
    problem = serialize.decode_extension_problem(doc)
    expect = serialize.decode_expect(doc, "coiso")
    feas = coiso.can_extend(problem)
    values = dict(feas.to_dict())
    checks = []
    if feas.feasible:
        rng = np.random.default_rng(cfg.seed) if cfg.seed else None
        ext = coiso.build_extension(problem, rng=rng)
        co_res = linalg.isometry_gap(ext.conj().T)
        restr = linalg.operator_norm(ext @ problem.m_prime.columns - problem.m.columns @ problem.c)
        values["coisometry_residual"] = co_res
        values["restriction_residual"] = restr
        values["extension"] = serialize.encode_matrix(ext)
        checks += [
            ("extension is a coisometry within 1e-10", co_res <= 1e-10),
            ("extension restricts to C within 1e-10", restr <= 1e-10),
        ]
    checks += [(f"feasibility = {want}", feas.feasible == want) for want in expect.values()]
    return _finish(cfg, [], values, checks)


def _cmd_dims(cfg: RunConfig) -> int:
    doc = _load_json(cfg.input)
    problem = serialize.decode_problem(doc)
    expect = serialize.decode_expect(doc, "dims")
    values = clt.dims_report(clt.build_omega(problem), problem).to_dict()
    checks = [(f"expected {key} = {want}", values[key] == want) for key, want in expect.items()]
    return _finish(cfg, [], values, checks)


_COMMAND_FUNCS = {"examples": lambda cfg: _SCENARIO_FUNCS[cfg.scenario](cfg), "lift": _cmd_lift,
                  "bimodel": _cmd_bimodel, "coiso": _cmd_coiso, "dims": _cmd_dims}


def main(argv=None) -> int:
    with linalg.OneBlasThread():
        cfg = config_from_args(build_parser().parse_args(argv))
        try:
            return _COMMAND_FUNCS[cfg.command](cfg)
        except (serialize.SchemaError, json.JSONDecodeError, OSError, clt.CLTError, coiso.CoisoError,
                bimodel.BimodelError, criteria.CriteriaError, h2.H2Error, linalg.LinalgError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
