"""The branch-and-bound trajectory on the pinned Fig. 5 models.

``tests/test_ilp_model_pinned.py`` pins the models; this test pins what
``solve(model, backend="auto")`` does with each of them, so a change to the
LP that branch-and-bound hands HiGHS (how the model is exported, presolved
or loaded) shows up in tier-1 and not only in a traced benchmark run.
``tests/fixtures/bnb_trajectories.json`` holds, per model of
:func:`~tests.test_ilp_model_pinned.lra_ilp_batches`:

* the status and the ``repr`` of the objective;
* ``nodes_explored`` and ``lp_solves``;
* a SHA-256 over the solution values as float64 bytes.

The values depend on the HiGHS version (node LPs are HiGHS solves).  Run as
a module, this file writes the fixture; that is only ever done from a
checkout of the commit the pinned behaviour comes from (the command is
recorded in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.test_bnb_trajectories OUT.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.solver import solve
from tests.test_ilp_model_pinned import SEEDS, lra_ilp_batches

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "bnb_trajectories.json")


def trajectory(model) -> dict:
    solution = solve(model, backend="auto")
    values = np.asarray(solution.values, dtype=np.float64)
    return {
        "status": solution.status.value,
        "objective": repr(solution.objective),
        "nodes_explored": solution.stats.nodes_explored,
        "lp_solves": solution.stats.lp_solves,
        "values_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
    }


def trajectories(seed: int) -> list[dict]:
    return [trajectory(model) for model, _ in lra_ilp_batches(seed)]


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", SEEDS)
def test_bnb_trajectories_pinned(pinned, seed):
    assert trajectories(seed) == pinned[str(seed)]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as handle:
        json.dump({str(seed): trajectories(seed) for seed in SEEDS}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
