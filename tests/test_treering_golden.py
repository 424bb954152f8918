"""The closures the control tables use, pinned bit for bit.

`dubins_position_tables` propagates `derive_position_moments(..., order,
include_means=True)` through its compiled `PropagationPlan`.  For orders
2 and 4 the data files hold that closure's `dump()` text and every array
of its plan, recorded from the derivation before it memoized its graph
walks, factorings and powers.  Any change to the derivation must leave
both byte- and bit-identical.

Run this file as a script to rewrite the data files from the current
derivation; do that only at a commit whose closures are trusted.
"""

import json
import os

import numpy as np
import pytest

from trajrisk.treering import PropagationPlan, derive_position_moments, dubins_system

DATA = os.path.join(os.path.dirname(__file__), "data")
ORDERS = (2, 4)
ARRAYS = ("factors", "coeff", "target", "even")


def _paths(order: int):
    stem = os.path.join(DATA, f"treering_order{order}_means")
    return stem + ".txt", stem + "_plan.json"


def _closure(order: int):
    return derive_position_moments(*dubins_system(), order, include_means=True)


def _plan_record(plan: PropagationPlan) -> dict:
    """The plan as JSON: symbols as (variable, exponent) pairs, arrays with
    their dtype, floats as hex so every bit is on the page."""
    record = {
        "tracked": [list(map(list, mi.exponents)) for mi in plan.tracked],
        "base": [list(map(list, mi.exponents)) for mi in plan.base],
    }
    for name in ARRAYS:
        arr = getattr(plan, name)
        values = [v.hex() for v in arr.tolist()] if arr.dtype.kind == "f" else arr.tolist()
        record[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "values": values}
    return record


def _array(entry: dict) -> np.ndarray:
    dtype = np.dtype(entry["dtype"])
    values = entry["values"]
    if dtype.kind == "f":
        values = [float.fromhex(v) for v in values]
    return np.array(values, dtype=dtype).reshape(entry["shape"])


@pytest.mark.parametrize("order", ORDERS)
def test_closure_dump_is_byte_identical(order):
    dump_path, _ = _paths(order)
    with open(dump_path, encoding="utf-8", newline="") as fh:
        assert _closure(order).dump() == fh.read()


@pytest.mark.parametrize("order", ORDERS)
def test_compiled_plan_is_bit_identical(order):
    _, plan_path = _paths(order)
    with open(plan_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    plan = _closure(order).plan
    record = _plan_record(plan)
    assert record["tracked"] == golden["tracked"]
    assert record["base"] == golden["base"]
    for name in ARRAYS:
        want, got = _array(golden[name]), getattr(plan, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


if __name__ == "__main__":
    for order in ORDERS:
        dyn = _closure(order)
        dump_path, plan_path = _paths(order)
        with open(dump_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(dyn.dump())
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(_plan_record(dyn.plan), fh, separators=(",", ":"))
            fh.write("\n")
