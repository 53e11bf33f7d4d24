"""Two commands asked the same question: does the single genre survive at beta?

``threshold`` prints, for each probe, the largest sum_i (<p, u_i>/a_i)^beta - N
it found and, when that beats the bar N (1 + delta), the point p.  ``nsw``
prints the anchor whose values are the a_i.  Each beaten probe's witness is
re-priced here against that printed anchor in plain numpy, and each holding
probe's excess must stay under the bar.  ``verify --variant onepop`` prices the
best deviation from the same single genre: at every holding probe's beta its
gap stays under delta(beta) N, and just past the first beaten probe it exceeds
that.  The sets were fixed before the first run: basis2, the 1-rad pair, the
benchmark's 30x5 and 200x10 and five sets of default_rng(7), at q = 1.5, 2
and 3.
"""

import json
import math

import numpy as np
import pytest

import supply_eq.threshold as threshold_mod
from supply_eq.cli import run
from supply_eq.geometry import UserSet
from supply_eq.ingest import save_embeddings_csv

_R0, _R7 = np.random.default_rng(0), np.random.default_rng(7)
SETS = {
    "basis2": np.eye(2),
    "angle1": np.array([[1.0, 0.0], [math.cos(1.0), math.sin(1.0)]]),
    "30x5": _R0.random((30, 5)),
    "200x10": _R0.random((200, 10)),
    **{f"rng7_{n}x{d}": _R7.random((n, d)) for n, d in ((10, 3), (20, 4), (30, 5), (40, 6),
                                                        (50, 7))},
}


def _report(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("q", ["1.5", "2", "3"])
@pytest.mark.parametrize("name", list(SETS))
def test_threshold_witnesses_reprice_against_the_printed_anchor(capsys, tmp_path, name, q):
    path = tmp_path / "users.csv"
    save_embeddings_csv(UserSet(SETS[name]), path)
    U = SETS[name]
    n = len(U)
    anchor = np.array(_report(capsys, ["nsw", "--users", str(path), "--q", q])["direction"])
    trace = _report(capsys, ["threshold", "--users", str(path), "--q", q])["condition_trace"]
    a = U @ anchor
    for probe in trace:
        bar = n * (1.0 + threshold_mod._delta(probe["beta"]))
        if probe["holds"]:
            assert probe["witness"] is None and probe["excess"] <= bar - n
        else:
            w = np.array(probe["witness"])
            assert np.all(w >= 0) and np.linalg.norm(w, float(q)) == pytest.approx(1.0, abs=1e-14)
            assert float((((U @ w) / a) ** probe["beta"]).sum()) > bar


def _onepop_gaps(capsys, path, q, betas):
    """verify --variant onepop's best_response_gap at each beta."""
    return [_report(capsys, ["verify", "--users", str(path), "--variant", "onepop", "--q", q,
                             "--beta", repr(beta), "--samples", "1000"])["best_response_gap"]
            for beta in betas]


@pytest.mark.parametrize("q", ["1.5", "2", "3"])
@pytest.mark.parametrize("name", list(SETS))
def test_verify_finds_no_deviation_where_threshold_holds(capsys, tmp_path, name, q):
    path = tmp_path / "users.csv"
    save_embeddings_csv(UserSet(SETS[name]), path)
    n = len(SETS[name])
    trace = _report(capsys, ["threshold", "--users", str(path), "--q", q])["condition_trace"]
    betas = [probe["beta"] for probe in trace if probe["holds"]]
    for beta, gap in zip(betas, _onepop_gaps(capsys, path, q, betas)):
        assert gap <= threshold_mod._delta(beta) * n, beta


@pytest.mark.parametrize("q", ["1.5", "2", "3"])
@pytest.mark.parametrize("name", list(SETS))
def test_verify_finds_a_deviation_just_past_the_first_beaten_probe(capsys, tmp_path, name, q):
    # Where no probe is beaten (basis2), the bisection's upper end is
    # beta_upper, past which the single genre is known to break.
    path = tmp_path / "users.csv"
    save_embeddings_csv(UserSet(SETS[name]), path)
    n = len(SETS[name])
    rep = _report(capsys, ["threshold", "--users", str(path), "--q", q])
    beta = 1.01 * min((probe["beta"] for probe in rep["condition_trace"] if not probe["holds"]),
                      default=rep["beta_upper"])
    assert _onepop_gaps(capsys, path, q, [beta])[0] > threshold_mod._delta(beta) * n
