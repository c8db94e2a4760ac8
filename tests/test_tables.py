"""Tests for the table harnesses and the transcribed paper numbers."""
from __future__ import annotations

import pytest

from repro.tables import format_rows, paper_numbers, table1_rows, table2_rows, table4_rows


class TestPaperNumbers:
    def test_datasets_consistent(self):
        for t in (paper_numbers.TABLE1, paper_numbers.TABLE2):
            assert set(t) == set(paper_numbers.DATASETS)

    def test_table3_methods(self):
        assert set(paper_numbers.TABLE3) == {
            "sigma", "linda", "rimom", "paris", "bsl", "minoaner"
        }

    def test_table3_prf_triples(self):
        for method, per_ds in paper_numbers.TABLE3.items():
            for ds, prf in per_ds.items():
                if prf is not None:
                    p, r, f1 = prf
                    assert 0 <= p <= 100 and 0 <= r <= 100 and 0 <= f1 <= 100

    def test_table4_variants(self):
        assert set(paper_numbers.TABLE4) == {
            "R1", "R2", "R3", "no_R4", "no_neighbors"
        }

    def test_minoaner_wins_on_high_variety_in_paper(self):
        """The paper's core claim, encoded: MinoanER beats BSL everywhere
        except Restaurant (tie) and beats every tool by a wide margin on
        the most heterogeneous dataset (BBCmusic-DBpedia). On YAGO-IMDb
        PARIS is 1.2 F1 ahead — the paper concedes that — so the claim
        is PARIS-specific only on bbc."""
        for ds in ("rexa_dblp", "bbc_dbpedia", "yago_imdb"):
            ours = paper_numbers.TABLE3["minoaner"][ds][2]
            assert ours > paper_numbers.TABLE3["bsl"][ds][2]
        bbc = paper_numbers.TABLE3
        assert bbc["minoaner"]["bbc_dbpedia"][2] > 80
        assert bbc["paris"]["bbc_dbpedia"][2] < 5


class TestFormat:
    def test_format_rows_markdown(self):
        out = format_rows("T", [{"a": 1, "b": 2.5}, {"a": None, "b": 1e-8}])
        assert "## T" in out
        assert "| a | b |" in out
        assert "| - |" in out  # None renders as '-'
        assert "1.00e-08" in out

    def test_empty(self):
        assert "(no rows)" in format_rows("T", [])


class TestHarnesses:
    """Smoke the harnesses on the cheapest real profile (restaurant, scaled).

    Table 3's full harness (BSL grid + iterative baselines) is covered by
    the benchmarks; here we validate row structure on tables 1/2/4.
    """

    def test_table1_rows(self, spark):
        rows = table1_rows(spark, profiles=["restaurant"], sf=0.2)
        assert len(rows) == 1
        r = rows[0]
        assert r["dataset"] == "restaurant"
        assert r["e1_entities"] > 0 and r["matches"] > 0
        assert "/" in r["attributes"]

    def test_table2_rows(self, spark):
        rows = table2_rows(spark, profiles=["restaurant"], sf=0.2)
        r = rows[0]
        assert r["recall"] >= 99.0
        assert r["token_comparisons"] + r["name_comparisons"] < r["cartesian"]

    def test_table4_rows(self, spark):
        rows = table4_rows(spark, profiles=["restaurant"], sf=0.2)
        variants = {r["variant"] for r in rows}
        assert variants == {"R1", "R2", "R3", "no_R4", "no_neighbors", "full"}
        full = next(r for r in rows if r["variant"] == "full")
        assert full["f1"] >= 75.0  # ~20 matches at this scale: noisy
        r1 = next(r for r in rows if r["variant"] == "R1")
        assert r1["precision"] >= 90.0  # name rule is precise by design


class TestTable3Labels:
    def test_baseline_labels_show_the_values_the_runs_use(self):
        from repro.baselines import paris, sigma
        from repro.tables import table3

        def fields(label: str) -> dict[str, str]:
            return dict(kv.split("=") for kv in label.split(","))

        sg = fields(table3.SIGMA_CONFIG)
        assert float(sg["lambda"]) == sigma.NEIGHBOR_WEIGHT
        assert float(sg["t"]) == sigma.THRESHOLD
        pr = fields(table3.PARIS_CONFIG)
        assert int(pr["iters"]) == paris.ITERATIONS
        assert float(pr["t"]) == paris.ACCEPT_THRESHOLD


class TestCLI:
    """``python -m repro.tables`` argument handling, with Spark and the
    table functions replaced by recorders."""

    @pytest.fixture
    def cli(self, monkeypatch):
        from repro.tables import __main__ as cli

        calls: dict[str, list] = {"spark": [], "tables": []}

        class FakeSpark:
            def stop(self) -> None:
                pass

        def fake_session(app_name: str) -> FakeSpark:
            calls["spark"].append(app_name)
            return FakeSpark()

        def recorder(key: str):
            def table_rows(spark, **kwargs) -> list[dict]:
                calls["tables"].append((key, kwargs))
                return []

            return table_rows

        monkeypatch.setattr(cli, "spark_session", fake_session)
        for key, (title, _) in list(cli.TABLES.items()):
            monkeypatch.setitem(cli.TABLES, key, (title, recorder(key)))
        return cli, calls

    @pytest.mark.parametrize(
        "argv", [["5"], ["3", "--profiles", "restaurant", "nosuch"]]
    )
    def test_bad_argument_exits_before_spark(self, cli, argv, capsys):
        cli, calls = cli
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err
        assert calls == {"spark": [], "tables": []}

    def test_profiles_and_sf_reach_every_table(self, cli):
        cli, calls = cli
        cli.main(["all", "--profiles", "restaurant", "yago_imdb", "--sf", "0.2"])
        expected = {"profiles": ["restaurant", "yago_imdb"], "sf": 0.2}
        assert calls["tables"] == [(key, expected) for key in "1234"]
        assert len(calls["spark"]) == 1

    def test_defaults_pass_through(self, cli):
        cli, calls = cli
        cli.main(["2"])
        assert calls["tables"] == [("2", {"profiles": None, "sf": None})]
