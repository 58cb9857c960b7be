"""scripts/bench_pairs.py: traced pairs are spread evenly among the
untimed pairs of a workload."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _spelled(order):
    return " ".join(f"{'t' if traced else 'u'}{i}" for traced, i in order)


def test_run_order_spreads_traced_pairs_among_untimed_ones():
    assert _spelled(bench_pairs.run_order(10, 3)) == \
        "u0 u1 t0 u2 u3 u4 t1 u5 u6 u7 t2 u8 u9"
    # a tie puts the untimed pair first
    assert _spelled(bench_pairs.run_order(2, 2)) == "u0 t0 u1 t1"
    assert _spelled(bench_pairs.run_order(1, 3)) == "t0 u0 t1 t2"
    assert _spelled(bench_pairs.run_order(3, 0)) == "u0 u1 u2"
    assert _spelled(bench_pairs.run_order(0, 2)) == "t0 t1"


def test_run_order_keeps_each_kind_in_order_and_complete():
    for n_pairs in range(6):
        for n_traced in range(6):
            order = bench_pairs.run_order(n_pairs, n_traced)
            assert [i for traced, i in order if not traced] == \
                list(range(n_pairs))
            assert [i for traced, i in order if traced] == \
                list(range(n_traced))
