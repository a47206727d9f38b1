"""Tests of the benchmark's own arithmetic.

    python3 -m pytest benchmarks -q
"""

import types

import pytest

import metrics
from tracing import Tracer, enclosing, self_times


def span(name, start, end, parent, call_id=0, elements=0):
    return (name, start, end, parent, call_id, elements)


NESTED = [
    span("solvers.solve_bcd", 0, 100, -1),                    # 0
    span("solvers.bcd_scalar_min", 10, 60, 0),                 # 1
    span("lfp_model.log_round_trip_success", 20, 50, 1),       # 2
    span("lfp_model.log_direction_success", 22, 40, 2),        # 3
    span("fbl_core.rate_margin", 25, 35, 3),                   # 4
    span("lfp_model.redundancy_bounds", 70, 80, 0),            # 5
    span("fbl_core.q_inv", 72, 75, 5),                         # 6
]


def test_self_time_subtracts_other_layers_through_own_layer():
    # solve_bcd looks through bcd_scalar_min (same layer) and loses the
    # 30 of the round-trip evaluation and the 10 of redundancy_bounds.
    assert self_times(NESTED) == [60, 20, 20, 8, 10, 7, 3]


def test_self_time_of_flat_and_empty_traces():
    assert self_times([]) == []
    assert self_times([span("fbl_core.q_inv", 5, 9, -1)]) == [4]


def test_enclosing_finds_nearest_solver_span():
    assert enclosing(NESTED, "solvers.solve_") == [0] * 7
    assert enclosing(NESTED, "lfp_model.") == [-1, -1, 2, 3, 3, 5, 5]


def test_tracer_records_parent_call_id_and_elements():
    tracer = Tracer()
    inner = tracer.wrap("fbl_core.rate_margin", lambda x: [x, x, x], count_elements=True)
    outer = tracer.wrap("lfp_model.log_direction_success", lambda x: inner(x))
    assert outer(1) == [1, 1, 1]            # disabled: nothing recorded
    assert tracer.spans == []
    with tracer.call(7):
        outer(2)
    with tracer.call(8):
        inner(3)
    names = [s[0] for s in tracer.spans]
    assert names == ["lfp_model.log_direction_success", "fbl_core.rate_margin",
                     "fbl_core.rate_margin"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert [s[4] for s in tracer.spans] == [7, 7, 8]
    assert [s[5] for s in tracer.spans] == [0, 3, 3]
    assert all(s[1] <= s[2] for s in tracer.spans)
    outer_span, inner_span = tracer.spans[:2]
    assert outer_span[1] <= inner_span[1] and inner_span[2] <= outer_span[2]


def test_tracer_records_span_of_a_raising_call():
    tracer = Tracer()

    def boom():
        raise ZeroDivisionError

    with tracer.call(0), pytest.raises(ZeroDivisionError):
        tracer.wrap("solvers.solve_mm", boom)()
    assert [s[0] for s in tracer.spans] == ["solvers.solve_mm"]


def test_instrument_patches_every_site_and_restores():
    def fn():
        return 1

    mods = {name: types.SimpleNamespace() for name in
            ("fbl_core", "lfp_model", "solvers", "bench_cli")}
    from tracing import LIBRARY_CALL_SITES
    for module, attr, _, _ in LIBRARY_CALL_SITES:
        setattr(mods[module], attr, fn)
    mods["bench_cli"]._METHODS = {"bcd": fn}
    package = types.SimpleNamespace(**mods)
    tracer = Tracer()
    with tracer.instrument(package):
        assert mods["solvers"].rate_margin is not fn
        assert mods["bench_cli"]._METHODS["bcd"] is not fn
        with tracer.call(0):
            mods["bench_cli"]._METHODS["bcd"]()
    assert [s[0] for s in tracer.spans] == ["solvers.solve_bcd"]
    for module, attr, _, _ in LIBRARY_CALL_SITES:
        assert getattr(mods[module], attr) is fn
    assert mods["bench_cli"]._METHODS["bcd"] is fn


def test_p90_needs_ten_samples_beyond():
    assert metrics.tail_percentile(list(range(1, 101)), 0.9) == 90
    assert metrics.tail_percentile(list(range(100, 0, -1)), 0.9) == 90
    assert metrics.tail_percentile(list(range(1, 100)), 0.9) is None
    assert metrics.tail_percentile([], 0.9) is None
    # the median needs only 20 samples for ten beyond it
    assert metrics.tail_percentile(list(range(1, 21)), 0.5) == 10
    assert metrics.tail_percentile(list(range(1, 20)), 0.5) is None


def test_fail_frac_counts_calls_not_problems():
    assert metrics.fail_frac([[], ["raised"], [], ["box", "lfp"]]) == 0.5
    assert metrics.fail_frac([[]]) == 0.0
    with pytest.raises(ValueError):
        metrics.fail_frac([])


def test_gap_and_undercut():
    assert metrics.rel_gap(3.0, 2.0) == 0.5
    assert metrics.rel_gap(0.0, 0.0) == 0.0
    assert metrics.rel_gap(1e-300, 0.0) == float("inf")
    assert metrics.beats(1.0, 2.0, 1e-12)
    assert not metrics.beats(2.0, 2.0, 1e-12)
    assert not metrics.beats(2.0 * (1 - 1e-13), 2.0, 1e-12)


CSV = ("vary,value,method,status,lfp,m1,m2,d_r1,d_r2,iterations,evaluations,wall_time,lfp_ibl\n"
       "M,200.0,bcd,converged,1.5e-05,100,100,70,70,2,351,{t1},0.0\n"
       "M,200.0,mm,converged,1.5e-05,100,100,70,70,2,359,{t2},0.0\n")


def test_csv_comparison_ignores_only_wall_time():
    a = CSV.format(t1=0.131, t2=0.142)
    b = CSV.format(t1=0.2, t2=0.01)
    assert metrics.same_csv_ignoring_time(a, b)
    assert not metrics.same_csv_ignoring_time(a, b.replace("1.5e-05", "1.6e-05", 1))
    assert not metrics.same_csv_ignoring_time(a, b.replace(",351,", ",352,"))
    assert not metrics.same_csv_ignoring_time(a, b.rstrip("\n"))
    assert "wall_time" not in metrics.csv_without_column(a)


def test_csv_comparison_without_time_column_is_exact():
    assert metrics.same_csv_ignoring_time("a,b\n1,2\n", "a,b\n1,2\n")
    assert not metrics.same_csv_ignoring_time("a,b\n1,2\n", "a,b\n1,3\n")


def test_host_speed_scale_is_reference_over_kernel_median():
    import hostspeed
    kernel_ns = [4e6, 5e6, 6e6]          # median 5 ms
    factor = hostspeed.scale(kernel_ns)
    assert factor == pytest.approx(hostspeed.REFERENCE_MS / 5.0)
    # a host twice as slow doubles both the call and the kernel time
    assert 200.0 * hostspeed.scale([10e6]) == pytest.approx(100.0 * factor)
