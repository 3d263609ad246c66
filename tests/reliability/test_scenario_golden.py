"""Golden same-seed scenario results: absolute values, not equivalences.

The scenario suite (``test_scenario.py``, ``test_scrub_equivalence.py``)
pins *relative* properties: serial == sharded == dense == resumed.  A
change that shifted every execution mode the same way would pass all of
them.  These exact dictionaries were captured from the seeded sharded
scenario runner *before* the Monte-Carlo and scenario interval loops
were folded into one, and pin the absolute numbers of three runs that
exercise the distinct fault sources: a transient + burst + stuck-at mix
on SuDoku-Z, interleaved bursts on per-line ECC, and metadata chaos.

Do not "update" these values to make a failure pass without
establishing exactly which change moved them and why that is correct.
"""

from repro.parallel.runner import run_sharded_scenario
from repro.reliability.scenario import BurstSpec, FaultScenario, StuckSpec
from repro.resilience.chaos import ChaosPolicy

MIXED = FaultScenario(
    transient_ber=2e-3,
    burst=BurstSpec(rate=0.05, length_pmf=((2, 0.5), (4, 0.5)), interleave=2),
    stuck=StuckSpec(ppm=300.0),
)

BURST_D2 = FaultScenario(
    burst=BurstSpec.fixed_length(rate=0.08, length=4, interleave=2),
)

CHAOS = ChaosPolicy(
    plt_flip_rate=0.02, map_swap_rate=0.01,
    visit_drop_rate=0.02, visit_duplicate_rate=0.02,
)

GOLDEN_MIXED_Z = {
    "intervals": 10,
    "ber": 0.002,
    "interval_s": 0.02,
    "outcomes": {
        "corrected_ecc1": 203,
        "corrected_sdr": 59,
        "corrected_raid4": 21,
        "corrected_hash2": 106,
        "clean": 205,
        "due": 48,
    },
    "interval_failures": 4,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {},
    "failure_probability": 0.4,
}

GOLDEN_ECCLINE_BURST_D2 = {
    "intervals": 10,
    "ber": 0.0,
    "interval_s": 0.02,
    "outcomes": {
        "corrected_ecc1": 68,
        "due": 2,
        "clean": 570,
    },
    "interval_failures": 2,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {},
    "failure_probability": 0.2,
}

GOLDEN_CHAOS_Z = {
    "intervals": 10,
    "ber": 0.002,
    "interval_s": 0.02,
    "outcomes": {
        "corrected_ecc1": 216,
        "corrected_sdr": 67,
        "corrected_raid4": 20,
        "corrected_hash2": 110,
        "clean": 220,
        "due": 14,
    },
    "interval_failures": 2,
    "lines": 64,
    "truncated": False,
    "stop_reason": "",
    "metadata": {
        "visits_duplicated": 7,
        "plt_flips": 5,
        "visits_dropped": 3,
    },
    "failure_probability": 0.2,
}


def test_mixed_scenario_on_sudoku_z_is_bit_identical_to_capture():
    result = run_sharded_scenario("Z", MIXED, 10, 8, seed=21).as_dict()
    assert result == GOLDEN_MIXED_Z


def test_interleaved_bursts_on_eccline_are_bit_identical_to_capture():
    result = run_sharded_scenario(
        "eccline", BURST_D2, 10, 8, seed=22
    ).as_dict()
    assert result == GOLDEN_ECCLINE_BURST_D2


def test_chaos_scenario_on_sudoku_z_is_bit_identical_to_capture():
    result = run_sharded_scenario(
        "Z", FaultScenario(transient_ber=2e-3), 10, 8, seed=23,
        chaos_policy=CHAOS, chaos_seed=5,
    ).as_dict()
    assert result == GOLDEN_CHAOS_Z
