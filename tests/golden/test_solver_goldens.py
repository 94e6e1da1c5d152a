"""The solvers reproduce their committed golden bytes.

See ``solver_goldens.py`` for what each case solves and records.  In
the environment that wrote the goldens every SHA-256 must match; in any
other environment the per-time-step sums must agree to ``rtol=1e-12``
(relative to the largest sum of the same array, so exact zeros at the
terminal time do not demand bit equality).  Never skipped.
"""

import json

import numpy as np
import pytest

from solver_goldens import CASES, GOLDEN_PATH, environment

GOLDEN = json.loads(GOLDEN_PATH.read_text())
SAME_ENVIRONMENT = GOLDEN["environment"] == environment()
RTOL = 1e-12


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return request.param, CASES[request.param]()


def test_case_matches_golden(case):
    name, records = case
    expected = GOLDEN["cases"][name]
    assert len(records) == len(expected), name
    for lane, (got, want) in enumerate(zip(records, expected)):
        where = f"{name}[{lane}]"
        assert got["n_iterations"] == want["n_iterations"], where
        if SAME_ENVIRONMENT:
            assert got["final_policy_change"] == want["final_policy_change"], where
            for array, record in want["arrays"].items():
                assert got["arrays"][array]["sha256"] == record["sha256"], (
                    f"{where}.{array}"
                )
            continue
        if want["final_policy_change"] is not None:
            assert got["final_policy_change"] == pytest.approx(
                want["final_policy_change"], rel=RTOL
            ), where
        for array, record in want["arrays"].items():
            sums = np.asarray(record["sums"])
            np.testing.assert_allclose(
                got["arrays"][array]["sums"],
                sums,
                rtol=RTOL,
                atol=RTOL * float(np.max(np.abs(sums))),
                err_msg=f"{where}.{array}",
            )


def test_one_lane_batches_equal_the_catalog_batch():
    # A lane's equilibrium must not depend on which lanes share its
    # batch: the six one-lane solves carry the catalog batch's bytes.
    cases = GOLDEN["cases"]
    assert cases["catalog-lanes"] == cases["catalog-batch"]


def test_golden_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)
