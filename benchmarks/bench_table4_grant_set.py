"""Table 4: the grant set for modem + 3D graphics + MPEG decompression.

Regenerates the table (rates 10 % / 52 % / 33 %) and benchmarks the
Resource Manager's full admit-three-tasks path, including grant-set
computation.
"""

import pytest

from repro.scenarios import table4_trio


def test_table4_grant_set(benchmark, report):
    scenario = benchmark(table4_trio, seed=4)
    threads = scenario.threads
    gs = scenario.rd.current_grant_set
    assert gs[threads["Modem"].tid].rate == pytest.approx(0.10)
    assert gs[threads["3D"].tid].rate == pytest.approx(0.52, abs=0.001)
    assert gs[threads["MPEG"].tid].rate == pytest.approx(1 / 3)
    assert gs.total_rate == pytest.approx(0.953, abs=0.001)
    report("table4_grant_set", gs.describe())
