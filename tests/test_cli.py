import json

import pytest

from liftlab import cli, clt, criteria, serialize

from conftest import contractive_matpoly, random_contraction

SCENARIOS = ["ex3_1", "ex3_2", "rk3_1", "cor3_3", "prop4_6"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_example_matches_and_is_deterministic(tmp_path, scenario):
    out = tmp_path / f"{scenario}.json"
    reports = []
    for _ in range(2):
        assert cli.main(["examples", scenario, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["matched"] is True
    assert all(doc["expected"].values())
    assert "threads" not in doc["config"]


BAD_SIZES = {
    "degree_negative": (["examples", "ex3_2", "--degree", "-1"], "--degree"),
    "degree_zero": (["examples", "cor3_3", "--degree", "0"], "--degree"),
    "grid_zero": (["examples", "cor3_3", "--grid", "0"], "--grid"),
    "grid_negative": (["examples", "rk3_1", "--grid", "-8"], "--grid"),
    "degree_not_an_integer": (["examples", "rk3_1", "--degree", "1.5"], "--degree"),
}


@pytest.mark.parametrize("name", sorted(BAD_SIZES))
def test_sizes_below_one_exit_2_naming_the_flag(capsys, name):
    argv, flag = BAD_SIZES[name]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


# seeds are non-negative: a negative one crashed in np.random.default_rng
BAD_SEEDS = {
    "examples_prop4_6": ["examples", "prop4_6", "--seed", "-1"],
    "coiso": ["coiso", "--input", "extension.json", "--seed", "-3"],
}


@pytest.mark.parametrize("name", sorted(BAD_SEEDS))
def test_negative_seeds_exit_2_naming_the_flag(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(BAD_SEEDS[name])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


# thresholds are finite, non-negative numbers: an inf --tol-taylor passed
# rk3_1's unitary top block, whose Taylor trace never decays
BAD_THRESHOLDS = {
    "tol_taylor_inf": (["examples", "rk3_1", "--tol-taylor", "inf"], "--tol-taylor"),
    "tol_taylor_nan": (["examples", "cor3_3", "--tol-taylor", "nan"], "--tol-taylor"),
    "tol_taylor_word": (["lift", "--input", "problem.json", "--tol-taylor", "tight"], "--tol-taylor"),
    "tol_int_inf": (["lift", "--input", "problem.json", "--tol-int", "1e999"], "--tol-int"),
    "tol_int_negative": (["examples", "ex3_2", "--tol-int=-1e-3"], "--tol-int"),
    "tol_int_nan": (["examples", "prop4_6", "--tol-int", "NaN"], "--tol-int"),
}


@pytest.mark.parametrize("name", sorted(BAD_THRESHOLDS))
def test_thresholds_must_be_finite_and_non_negative(capsys, name):
    argv, flag = BAD_THRESHOLDS[name]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite, non-negative number" in capsys.readouterr().err


def write_json(path, doc) -> str:
    path.write_text(serialize.dumps_canonical(doc), encoding="utf-8")
    return str(path)


def shift_problem_doc(rng, expect=None) -> dict:
    """Mult-1 shift problem at shift degree 4; T' is a strict 2 x 2
    contraction, so D_T' has rank 2 and the shift's adjoint defect rank 1."""
    t_prime = random_contraction(rng, 2, 2, norm=0.8)
    doc = serialize.encode_problem(clt.shift_intertwining_problem(rng, 1, 4, t_prime, x_norm=0.9))
    if expect is not None:
        doc["expect"] = expect
    return doc


def extension_doc(rng, hp_dim: int) -> dict:
    """3-dim H with 2-dim M and M'; C is a full-rank strict contraction,
    so rank D_C* = 2 and an extension exists iff hp_dim - 2 >= 3."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "H_dim": 3,
        "H_prime_dim": hp_dim,
        "M": serialize.encode_matrix(cplx(3, 2)),
        "M_prime": serialize.encode_matrix(cplx(hp_dim, 2)),
        "C": serialize.encode_matrix(random_contraction(rng, 2, 2, norm=0.9)),
        "expect": {"feasible": hp_dim - 2 >= 3},
    }


def symbol_doc(rng) -> dict:
    return serialize.encode_matpoly(contractive_matpoly(rng, 2, 2, 2, norm=0.9))


def lift_with_schur(rng, tmp) -> list:
    """lift with a degree-2 free parameter of sup norm 0.9 on the coupling
    kernel: a strict contraction, so the lifting is not an isometry."""
    doc = shift_problem_doc(rng, {"lifting_isometry": "fail"})
    ld = clt.build_omega(serialize.decode_problem(doc))
    r = contractive_matpoly(rng, ld.ker_omega_star.dim, ld.ker_omega.dim, 2, norm=0.9)
    return [
        "lift", "--input", write_json(tmp / "lift.json", doc),
        "--schur", write_json(tmp / "schur.json", serialize.encode_matpoly(r)),
    ]


COMMANDS = {
    # no --schur file: the zero free parameter is not isometric on the
    # coupling kernel, so the lifting is not an isometry
    "lift": lambda rng, tmp: [
        "lift", "--input", write_json(tmp / "lift.json", shift_problem_doc(rng, {"lifting_isometry": "fail"})),
    ],
    "lift_schur": lift_with_schur,
    "dims": lambda rng, tmp: [
        "dims", "--input",
        write_json(tmp / "dims.json", shift_problem_doc(rng, {"dim_defect_tprime": 2, "dim_defect_tstar": 1})),
    ],
    "coiso_feasible": lambda rng, tmp: ["coiso", "--input", write_json(tmp / "feasible.json", extension_doc(rng, 5))],
    "coiso_infeasible": lambda rng, tmp: ["coiso", "--input", write_json(tmp / "infeasible.json", extension_doc(rng, 4))],
    "bimodel": lambda rng, tmp: [
        "bimodel", "--input", write_json(tmp / "symbol.json", symbol_doc(rng)), "--grid", "64", "--degree", "8",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_and_is_deterministic(tmp_path, rng, name):
    argv = COMMANDS[name](rng, tmp_path)
    out = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        assert cli.main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["matched"] is True
    assert doc["expected"] and all(doc["expected"].values())


def test_lift_assembles_the_schur_symbol_once(tmp_path, rng, monkeypatch):
    calls = []
    original = clt.assemble_schur_W

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # every module that binds the function, as the benchmark's tracer does
    for module in (clt, criteria, cli):
        if getattr(module, "assemble_schur_W", None) is original:
            monkeypatch.setattr(module, "assemble_schur_W", counted)
    argv = COMMANDS["lift"](rng, tmp_path)
    assert cli.main([*argv, "--degree", "64", "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def test_bimodel_report_does_not_depend_on_the_seed(tmp_path, rng, capsys):
    """bimodel draws nothing, so it takes no --seed; the report echoes
    the default seed and records no randomized trials."""
    path = write_json(tmp_path / "symbol.json", symbol_doc(rng))
    out = tmp_path / "report.json"
    argv = ["bimodel", "--input", path, "--grid", "64", "--degree", "8", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert cli.main(argv) == 0
    doc = json.loads(out.read_bytes())
    assert doc["config"]["seed"] == 0
    tolerances = doc["reports"][0]["tolerances"]
    assert "seed" not in tolerances and "trials" not in tolerances


FLAG_VALUES = {
    "--csv": "traces", "--degree": "8", "--grid": "64", "--ladder": "0.5,0.9",
    "--tol-int": "1e-3", "--tol-taylor": "1e-6", "--seed": "5",
}
# flags a subcommand does not read; each is a usage error there
DROPPED_FLAGS = [
    ("lift", "--seed"),
    *[("bimodel", f) for f in ("--csv", "--ladder", "--tol-int", "--tol-taylor", "--seed")],
    *[("coiso", f) for f in ("--csv", "--degree", "--grid", "--ladder", "--tol-int", "--tol-taylor")],
    *[("dims", f) for f in ("--csv", "--degree", "--grid", "--ladder", "--tol-int", "--tol-taylor", "--seed")],
]


@pytest.mark.parametrize("command,flag", DROPPED_FLAGS)
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", "problem.json", flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def read_csv(path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_csv_rows_equal_the_report(tmp_path):
    out, prefix = tmp_path / "rk3_1.json", tmp_path / "traces"
    assert cli.main(["examples", "rk3_1", "--out", str(out), "--csv", str(prefix)]) == 0
    doc = json.loads(out.read_bytes())
    written = 0
    for rep in doc["reports"]:
        for key, suffix in (("rho_ladder", "rho"), ("taylor_trace", "taylor")):
            path = tmp_path / f"traces.{rep['criterion_id']}.{suffix}.csv"
            assert path.exists() == bool(rep[key])
            if rep[key]:
                assert read_csv(path) == rep[key]
                written += 1
    # radial_isometry's ladder and trace, constant_symbol's and obstruction's traces
    assert written == 4


def with_field(doc: dict, key: str, value) -> dict:
    return {**doc, key: value}


def with_entry(doc: dict, key: str, value) -> dict:
    """doc with doc[key][0][0] replaced by value."""
    rows = [list(row) for row in doc[key]]
    rows[0][0] = value
    return {**doc, key: rows}


def with_entry_retyped(doc: dict, key: str, retype) -> dict:
    """doc with the [re, im] pair doc[key][0][0] replaced by retype(re, im)."""
    return with_entry(doc, key, retype(*doc[key][0][0]))


def with_t(rng, spec: dict) -> dict:
    """A valid shift problem with its T replaced by spec."""
    return with_field(shift_problem_doc(rng), "T", spec)


def symbol_poly(*coeffs) -> dict:
    return {"coeffs": [serialize.encode_matrix(c) for c in coeffs]}


# a shift on the zero space: lift crashed on it instead of rejecting it
EMPTY_SHIFT_DOC = {"T": {"shift": {"mult": 0, "degree": 4}}, "T_prime": [[[0.5, 0.0]]], "X": [[]]}


MALFORMED = {
    "bimodel_array": ("bimodel", lambda rng: [[1.0, 0.0]], "at $:"),
    "bimodel_bad_symbol": ("bimodel", lambda rng: {"symbol": {"coeffs": "x"}}, "at $.symbol.coeffs:"),
    "lift_tol": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", "tight"), "at $.tol:"),
    "dims_tol": ("dims", lambda rng: with_field(shift_problem_doc(rng), "tol", [1e-8]), "at $.tol:"),
    # tol is a finite, non-negative JSON number: an inf or nan tol would pass every check
    "lift_tol_inf_string": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", "inf"), "at $.tol:"),
    "lift_tol_nan_string": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", "nan"), "at $.tol:"),
    "lift_tol_numeric_string": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", "1e-3"), "at $.tol:"),
    "lift_tol_bool": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", True), "at $.tol:"),
    "lift_tol_bare_nan": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", float("nan")), "at $.tol:"),
    "dims_tol_bare_infinity": ("dims", lambda rng: with_field(shift_problem_doc(rng), "tol", float("inf")), "at $.tol:"),
    "lift_tol_negative": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", -1e-8), "at $.tol:"),
    "coiso_tol_inf_string": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", "inf"), "at $.tol:"),
    "coiso_tol_numeric_string": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", "1e-3"), "at $.tol:"),
    "coiso_tol_bool": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", True), "at $.tol:"),
    "coiso_tol_bare_nan": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", float("nan")), "at $.tol:"),
    "coiso_tol_bare_infinity": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", float("-inf")), "at $.tol:"),
    "coiso_tol_negative": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", -1e-3), "at $.tol:"),
    "lift_window": ("lift", lambda rng: with_field(shift_problem_doc(rng), "window", "wide"), "at $.window:"),
    "coiso_tol": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", "tight"), "at $.tol:"),
    "lift_shift_mult_zero": ("lift", lambda rng: EMPTY_SHIFT_DOC, "at $.T.shift:"),
    "dims_shift_degree_negative": ("dims", lambda rng: with_t(rng, {"shift": {"mult": 1, "degree": -2}}), "at $.T.shift:"),
    "lift_mult_op_not_square": (
        "lift", lambda rng: with_t(rng, {"mult_op": {"symbol": symbol_poly([[1.0, 0.0]]), "degree": 4}}),
        "at $.T.mult_op:",
    ),
    # a degree-2 symbol cannot act on series truncated at degree 1
    "lift_mult_op_too_short": (
        "lift", lambda rng: with_t(rng, {"mult_op": {"symbol": symbol_poly([[0.0]], [[0.0]], [[1.0]]), "degree": 1}}),
        "at $.T.mult_op:",
    ),
    "lift_dense_not_square": (
        "lift", lambda rng: with_t(rng, {"dense": serialize.encode_matrix(rng.standard_normal((5, 6)))}),
        "at $.T.dense:",
    ),
    # sizes are JSON integers: no fraction, bool or string is rounded or parsed
    "lift_shift_fractions": ("lift", lambda rng: with_t(rng, {"shift": {"mult": 1.9, "degree": 4.7}}), "at $.T.shift:"),
    "lift_shift_mult_bool": ("lift", lambda rng: with_t(rng, {"shift": {"mult": True, "degree": 4}}), "at $.T.shift:"),
    "dims_shift_degree_string": ("dims", lambda rng: with_t(rng, {"shift": {"mult": 1, "degree": "4"}}), "at $.T.shift:"),
    "lift_mult_op_degree_fraction": (
        "lift", lambda rng: with_t(rng, {"mult_op": {"symbol": symbol_poly([[0.0]], [[1.0]]), "degree": 4.5}}),
        "at $.T.mult_op:",
    ),
    "lift_window_fraction": ("lift", lambda rng: with_field(shift_problem_doc(rng), "window", 2.9), "at $.window:"),
    "dims_window_string": ("dims", lambda rng: with_field(shift_problem_doc(rng), "window", "2"), "at $.window:"),
    "coiso_h_dim_fraction": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "H_dim", 3.0), "at $.H_dim:"),
    "coiso_h_prime_dim_string": (
        "coiso", lambda rng: with_field(extension_doc(rng, 5), "H_prime_dim", "5"), "at $.H_prime_dim:",
    ),
    "lift_nan_entry": ("lift", lambda rng: with_entry(shift_problem_doc(rng), "X", ["nan", 0.0]), "at $.X[0][0]:"),
    "coiso_infinite_entry": ("coiso", lambda rng: with_entry(extension_doc(rng, 5), "C", [0.0, "inf"]), "at $.C[0][0]:"),
    # entries are JSON numbers: a string or a bool is not parsed as one
    "lift_string_entry": (
        "lift", lambda rng: with_entry_retyped(shift_problem_doc(rng), "X", lambda re, im: [repr(re), im]),
        "at $.X[0][0]:",
    ),
    "coiso_bool_entry": (
        "coiso", lambda rng: with_entry_retyped(extension_doc(rng, 5), "C", lambda re, im: [re, False]),
        "at $.C[0][0]:",
    ),
    # a JSON integer beyond the float range raised OverflowError
    "lift_huge_integer_entry": ("lift", lambda rng: with_entry(shift_problem_doc(rng), "X", [10**400, 0]), "at $.X[0][0]:"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_path(tmp_path, rng, capsys, name):
    command, make_doc, where = MALFORMED[name]
    path = write_json(tmp_path / "input.json", make_doc(rng))
    assert cli.main([command, "--input", path]) == 2
    assert where in capsys.readouterr().err
