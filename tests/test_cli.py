import json

import pytest

from liftlab import cli, clt, serialize

from conftest import contractive_matpoly, random_contraction

# prop4_6 is left out: at its defaults both lifting_isometry verdicts
# come out inconclusive and the scenario exits 1
SCENARIOS = ["ex3_1", "ex3_2", "rk3_1", "cor3_3"]


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


COMMANDS = {
    # no --schur file: the zero free parameter is not isometric on the
    # coupling kernel, so the lifting is not an isometry
    "lift": lambda rng, tmp: [
        "lift", "--input", write_json(tmp / "lift.json", shift_problem_doc(rng, {"lifting_isometry": "fail"})),
    ],
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


MALFORMED = {
    "bimodel_array": ("bimodel", lambda rng: [[1.0, 0.0]], "at $:"),
    "bimodel_bad_symbol": ("bimodel", lambda rng: {"symbol": {"coeffs": "x"}}, "at $.symbol.coeffs:"),
    "lift_tol": ("lift", lambda rng: with_field(shift_problem_doc(rng), "tol", "tight"), "at $.tol:"),
    "dims_tol": ("dims", lambda rng: with_field(shift_problem_doc(rng), "tol", [1e-8]), "at $.tol:"),
    "lift_window": ("lift", lambda rng: with_field(shift_problem_doc(rng), "window", "wide"), "at $.window:"),
    "coiso_tol": ("coiso", lambda rng: with_field(extension_doc(rng, 5), "tol", "tight"), "at $.tol:"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_path(tmp_path, rng, capsys, name):
    command, make_doc, where = MALFORMED[name]
    path = write_json(tmp_path / "input.json", make_doc(rng))
    assert cli.main([command, "--input", path]) == 2
    assert where in capsys.readouterr().err
