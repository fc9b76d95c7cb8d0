from fractions import Fraction

import pytest

from bipartize.bench import CSV_HEADER, format_ratio, rows_to_csv, run_bench
from bipartize.generate import gnp

from .conftest import cycle_graph


class TestFormatRatio:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (1, 1, "1.000000"),
            (0, 7, "0.000000"),
            (1, 3, "0.333333"),
            (2, 3, "0.666667"),
            (0, 0, "1.000000"),
            (99, 100, "0.990000"),
        ],
    )
    def test_examples(self, num, den, expected):
        assert format_ratio(num, den) == expected

    def test_six_decimal_places_always(self):
        for num, den in ((5, 7), (123, 456), (1, 999983)):
            text = format_ratio(num, den)
            whole, _, frac = text.partition(".")
            assert len(frac) == 6
            assert abs(float(text) - num / den) < 1e-6


class TestRunBench:
    def test_rows_and_csv(self):
        instances = [
            ("c5", cycle_graph(5)),
            ("gnp", gnp(8, 0.5, seed=1, weights=(1, 20))),
        ]
        rows = run_bench(instances)
        assert [row.instance for row in rows] == ["c5", "gnp"]
        for row in rows:
            assert row.exact_optimal
            assert row.approx_weight <= row.exact_weight
            assert Fraction(row.approx_weight, max(row.exact_weight, 1)) <= 1
            assert row.ratio == format_ratio(row.approx_weight, row.exact_weight)
        csv = rows_to_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == CSV_HEADER == (
            "instance,n,m,max_degree,exact_weight,exact_optimal,"
            "approx_weight,ratio,exact_search_nodes,exact_ms,approx_ms"
        )
        assert len(lines) == 3
        assert lines[1].startswith("c5,5,5,2,4,True,")

    @pytest.mark.parametrize("seed", range(6))
    def test_ratio_meets_degree_bound_when_optimal(self, seed):
        g = gnp(10 + seed, 0.4, seed=seed, weights=(1, 30))
        (row,) = run_bench([("g", g)])
        assert row.exact_optimal
        assert Fraction(row.approx_weight, row.exact_weight) >= Fraction(
            3, row.max_degree + 3
        )

    def test_non_timing_columns_deterministic(self):
        instances = [("g", gnp(9, 0.4, seed=3, weights=(1, 30)))]
        first = rows_to_csv(run_bench(instances))
        second = rows_to_csv(run_bench(instances))
        strip = lambda text: [line.rsplit(",", 2)[0] for line in text.splitlines()]
        assert strip(first) == strip(second)
