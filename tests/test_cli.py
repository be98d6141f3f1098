import json

import pytest

from liftlab import cli

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
