"""Closed-form gate counts: piecewise formulas vs independent summation forms."""

import json

import pytest

from swapnet.qram.counts import (
    count_gates,
    ext1_saved_pairs,
    fetch_bidirectional_pairs,
    fetch_routing_ops,
    fetch_unidirectional_pairs,
    internal_swap_pairs,
    merged_pair_count,
    setting_routing_pairs,
)

GRID = [(n, k) for n in range(1, 7) for k in range(1, 7)]


@pytest.mark.parametrize("n,k", GRID)
def test_merged_pair_count_equals_gap_sum(n, k):
    # independent form: words i and j<i merge when their index gap is < n
    direct = sum(min(i, n - 1) for i in range(1, k))
    assert merged_pair_count(n, k) == direct


def test_merged_pair_count_piecewise_examples():
    assert merged_pair_count(3, 2) == 1  # n >= k: k(k-1)/2
    assert merged_pair_count(2, 3) == 2  # n < k: n(n-1)/2 + (k-n)(n-1)
    assert merged_pair_count(1, 5) == 0
    assert merged_pair_count(4, 4) == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_internal_swap_pairs_formula(n):
    # one pair per non-root parent choice over both stages: setting and
    # uncompute each place 2^(l-1) pairs at layer l >= 1
    direct = 2 * sum(2 ** (l - 1) for l in range(1, n))
    assert internal_swap_pairs(n) == direct == 2**n - 2


@pytest.mark.parametrize("n", range(1, 7))
def test_setting_routing_pairs_formula(n):
    # address bit l routes through layers 0..l-1 (2^j pairs each), twice
    direct = 2 * sum(2**j for l in range(n) for j in range(l))
    assert setting_routing_pairs(n) == direct == 2 * (2**n - n - 1)


@pytest.mark.parametrize("n,k", GRID)
def test_fetch_split_into_uni_and_bidir(n, k):
    uni = sum(2 ** (n - i) * min(i, k) for i in range(1, n))
    bidir = sum(2 ** (n - i - 1) * (k - min(i, k)) for i in range(1, n))
    assert fetch_unidirectional_pairs(n, k) == uni
    assert fetch_bidirectional_pairs(n, k) == bidir
    # scheduled layer-ops: 2(n-1)k total traversals minus one per merge
    assert fetch_routing_ops(n, k) == 2 * (n - 1) * k - merged_pair_count(n, k)


def test_fetch_routing_ops_example():
    assert fetch_routing_ops(3, 2) == 7


@pytest.mark.parametrize("n,k", GRID)
def test_ext1_savings_formula(n, k):
    direct = 3 * 2**n - 2 * n - 4 + fetch_unidirectional_pairs(n, k)
    assert ext1_saved_pairs(n, k) == direct
    # also: all pair families whose one operand is a known |0>
    assert ext1_saved_pairs(n, k) == (
        internal_swap_pairs(n)
        + setting_routing_pairs(n)
        + fetch_unidirectional_pairs(n, k)
    )


@pytest.mark.parametrize("n,k", GRID)
def test_cz_on_qpu_equals_merge_count(n, k):
    # one deferred bus CZ per earlier word within the merge window
    assert count_gates(n, k).cz_on_qpu == sum(min(i, n - 1) for i in range(k))
    assert count_gates(n, k).cz_on_qpu == merged_pair_count(n, k)


def test_cz_on_qpu_example():
    assert count_gates(3, 3).cz_on_qpu == 0 + 1 + 2


def test_report_fields_and_totals():
    r = count_gates(3, 2)
    assert r.n == 3 and r.k == 2
    assert r.internal_swap_pairs == 6 and r.root_swaps == 2
    assert r.setting_routing_pairs == 8
    assert r.fetch_routing_ops == 7
    assert r.fetch_unidirectional_pairs == 8  # 2^2*1 + 2^1*2
    assert r.fetch_bidirectional_pairs == 2  # 2^1*1 + 2^0*0
    assert r.ext1_saved_pairs == 6 + 8 + 8
    assert r.ext2_saved_pairs == r.fetch_bidirectional_pairs
    assert r.cz_on_qpu == 1
    assert r.parity_correction_events == r.extra_memory_cells == 1


def test_report_serializes():
    r = count_gates(2, 2)
    d = r.to_dict()
    assert d["internal_swap_pairs"] == 2
    assert json.loads(r.to_json()) == d
    table = r.table()
    assert "n=2" in table and "Root SWAPs" in table


def test_count_gates_rejects_bad_sizes():
    with pytest.raises(ValueError):
        count_gates(0, 1)
    with pytest.raises(ValueError):
        count_gates(1, 0)


def test_nonnegativity_over_grid():
    for n, k in GRID:
        r = count_gates(n, k)
        for name, value in r.to_dict().items():
            assert value >= 0, (n, k, name)
