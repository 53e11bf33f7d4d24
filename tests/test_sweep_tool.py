"""tools/sweep.py: the compare mode on a cut recipe, and the oracle's ascent."""

import copy
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from supply_eq import CostSpec, UserSet, nsw_direction

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_compare_names_a_flipped_verdict_and_nothing_else(tmp_path, capsys):
    record = sweep.sweep(ROOT, sets=3, qs=(2.0,))
    assert list(record["reports"]) == ["set 0 (3x7) q 2.0", "set 1 (3x5) q 2.0",
                                       "set 2 (56x4) q 2.0"]
    assert all(rep["probes"] for rep in record["reports"].values())
    base, same = tmp_path / "base.json", tmp_path / "same.json"
    base.write_text(json.dumps(record))
    same.write_text(json.dumps(json.loads(base.read_text())))
    assert sweep.compare(record, record) == []
    assert sweep.main(["--compare", str(base), str(same)]) == 0
    probes = sum(len(rep["probes"]) for rep in record["reports"].values())
    assert capsys.readouterr().out == f"identical: {probes} probes\n"

    doctored = copy.deepcopy(record)
    probe = doctored["reports"]["set 2 (56x4) q 2.0"]["probes"][4]
    assert probe["holds"] and probe["status"] == "step_cap"
    probe["holds"] = not probe["holds"]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(doctored))
    line = f"set 2 (56x4) q 2.0 probe 4 (beta {probe['beta']}): holds True -> False"
    assert sweep.compare(record, doctored) == [line]
    assert sweep.main(["--compare", str(base), str(new)]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_the_oracle_prices_a_point_above_the_bar_on_set_42():
    # The recipe's set 42 (8 x 4) at q = 2: the report's probe at this beta
    # holds with status step_cap, yet a long plain ascent finds points above
    # the bar, each confirmed here by pricing it again.
    U = sweep.recipe(43)[42]
    assert U.shape == (8, 4)
    beta, n = 8.399742384268421, U.shape[0]
    a = U @ nsw_direction(UserSet(U), CostSpec(q=2.0)).point
    found = sweep.oracle_points(U, a, beta, 2.0, np.random.default_rng(0))
    assert found
    bar = n * (1.0 + max(1e-11, 10.0 * beta * np.finfo(float).eps))
    for excess, point in found:
        assert (point >= 0).all() and abs(np.linalg.norm(point) - 1.0) < 1e-12
        value = ((point @ U.T / a) ** beta).sum()
        assert value > bar and excess == pytest.approx(value - n, rel=1e-6)
