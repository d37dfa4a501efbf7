"""BENCH_networks.json: schema, attribution, and CLI wiring."""

import json

import pytest

from repro.eval import graph_bench
from repro.eval.graph_bench import BENCH_NETWORKS, SCHEMA, run_graph_bench
from tests.eval import assert_header
from tests.graph.shared import SharedNetwork

pytestmark = pytest.mark.graph


@pytest.fixture
def shared_lowerings(monkeypatch):
    """The bench runs the session's shared lowerings: these tests check
    the artifact, not a first run."""
    monkeypatch.setattr(graph_bench, "network", SharedNetwork)


class TestGraphBench:
    def test_bench_covers_figure15_plus_decode(self):
        assert set(BENCH_NETWORKS) == {
            "DistilBERT", "BERT-base", "BERT-large", "RoBERTa", "GPT-2",
            "GPT-2-decode",
        }

    def test_unknown_network_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown networks"):
            run_graph_bench(networks=["AlexNet"], outdir=str(tmp_path))

    def test_payload_schema_and_attribution(self, tmp_path,
                                            shared_lowerings):
        path = run_graph_bench(networks=["DistilBERT"], tune=False,
                               outdir=str(tmp_path))
        with open(path) as fh:
            payload = json.load(fh)
        from repro.tuner import resolve_arch

        assert payload["schema"] == SCHEMA
        assert_header(payload)
        assert payload["arch"] == resolve_arch("ampere").name
        assert payload["passed"] is True
        (row,) = payload["networks"]
        assert row["network"] == "DistilBERT"
        assert row["scenario"] == "encoder"
        for variant in ("tuned", "library"):
            block = row[variant]
            assert block["attribution"] == "executed"
            assert block["passed"] is True
            assert block["seconds_us"] > 0
            assert block["launches"] >= len(block["groups"])
            assert all(g["passed"] for g in block["groups"])
        assert row["tuned"]["mode"] == "auto"
        assert row["library"]["mode"] == "unfused"
        assert row["speedup"] == (row["library"]["seconds_us"]
                                  / row["tuned"]["seconds_us"])
        # The legacy cost-table number rides along, clearly labelled.
        assert row["modelled_context"]["attribution"] == "modelled"
        assert row["modelled_context"]["library_us"] > 0

    def test_decode_row_has_no_modelled_context(self, tmp_path,
                                                shared_lowerings):
        path = run_graph_bench(networks=["GPT-2-decode"], tune=False,
                               outdir=str(tmp_path))
        with open(path) as fh:
            payload = json.load(fh)
        (row,) = payload["networks"]
        assert row["scenario"] == "decode"
        assert "modelled_context" not in row

    def test_cli_graph_bench_subcommand(self, tmp_path, capsys,
                                        shared_lowerings):
        from repro.eval.__main__ import main

        rc = main(["graph-bench", "DistilBERT", "--no-tune",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BENCH_networks.json" in out
        assert (tmp_path / "BENCH_networks.json").exists()
