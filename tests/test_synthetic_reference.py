"""The crossing generators against their former copies (`reference_synthetic`).

Both generators now open with one shared encounter draw.  Every document
must stay the same to the last bit, through a fresh seed and through a
caller's generator, and a shared generator must be left in the same state.
"""

import json

import numpy as np
import pytest

import reference_synthetic as ref
from trajrisk import synthetic

SEEDS = range(200)


def _same(new: dict, old: dict) -> bool:
    return json.dumps(new) == json.dumps(old)


@pytest.mark.parametrize("n_steps", [4, 30])
def test_generators_match_the_former_ones_by_seed(n_steps):
    for seed in SEEDS:
        assert _same(synthetic.crossing_position_scenario(seed=seed, n_steps=n_steps),
                     ref.crossing_position_scenario(seed=seed, n_steps=n_steps)), seed
        for n_modes in (2, 3):
            new = synthetic.crossing_control_scenario(seed=seed, n_steps=n_steps,
                                                      n_modes=n_modes)
            old = ref.crossing_control_scenario(seed=seed, n_steps=n_steps, n_modes=n_modes)
            assert _same(new, old), (seed, n_modes)


@pytest.mark.parametrize("n_steps", [4, 30])
def test_generators_match_the_former_ones_on_a_shared_stream(n_steps):
    for seed in SEEDS:
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _same(synthetic.crossing_position_scenario(rng=new_rng, n_steps=n_steps),
                     ref.crossing_position_scenario(rng=old_rng, n_steps=n_steps)), seed
        for n_modes in (2, 3):
            new = synthetic.crossing_control_scenario(rng=new_rng, n_steps=n_steps,
                                                      n_modes=n_modes)
            old = ref.crossing_control_scenario(rng=old_rng, n_steps=n_steps, n_modes=n_modes)
            assert _same(new, old), (seed, n_modes)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state, seed
