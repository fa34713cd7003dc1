"""Tests of the benchmark's own parts: ``python3 -m pytest perfbench``."""

import run
from reference import newman_sum
from tracing import Tracer
from workloads import SCAN_ROWS


def test_reference_matches_enumeration_below_2_to_14():
    for l in range(3):
        s = 0
        for N in range(2 ** 14):
            assert newman_sum(l, N) == s, (l, N)
            if N % 3 == l:
                s += -1 if N.bit_count() & 1 else 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        return sum(range(10 ** 5))

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.call("outer", outer)
    total = tracer.values["outer"] + tracer.values["inner"]
    assert 0 < tracer.values["outer"] < tracer.values["inner"] < total


def test_scan_delta_counts_one_core_call_per_row(tmp_path):
    _, cli, ops = run.set_up("scan-delta", 1, tmp_path)
    analysis, core = cli.analysis, cli.core
    first, _, rounds, _ = run.measure(cli, ops, tmp_path, 0, trace=True)
    assert run.check(ops, first, rounds) == []
    (round0, _), (untraced, _), (traced, _) = rounds
    assert round0 is None and untraced is None
    assert traced["core.calls"] == SCAN_ROWS
    assert traced["analysis.bound_calls"] == 2 * SCAN_ROWS
    # the untraced rounds run the program's own functions
    assert cli.core is core and analysis.newman_sum_recursive is core.newman_sum_recursive
    assert analysis.lower_bound.__module__ == "newmansum.analysis"
    assert not hasattr(analysis.lower_bound, "__wrapped__")
