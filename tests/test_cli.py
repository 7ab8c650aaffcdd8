"""Tests for the repro-mine command line interface."""

import pytest

from repro.cli import build_parser, main
from repro.db import paper_example_database, write_uncertain


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_mine_command_defaults(self):
        args = build_parser().parse_args(["mine"])
        assert args.algorithm == "uapriori"
        assert args.dataset == "accident"
        assert args.pft == 0.9

    def test_experiment_command_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])


class TestCommands:
    def test_list_prints_algorithms_and_datasets(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "uapriori" in output
        assert "kosarak" in output

    def test_mine_benchmark_dataset(self, capsys):
        code = main(["mine", "-a", "uh-mine", "-d", "gazelle", "--scale", "0.001", "--min-esup", "0.05"])
        assert code == 0
        output = capsys.readouterr().out
        assert "frequent itemsets" in output

    def test_mine_probabilistic_algorithm(self, capsys):
        code = main(
            ["mine", "-a", "nduh-mine", "-d", "gazelle", "--scale", "0.001", "--min-sup", "0.05"]
        )
        assert code == 0
        assert "frequent itemsets" in capsys.readouterr().out

    def test_mine_from_file(self, tmp_path, capsys):
        path = tmp_path / "paper.txt"
        write_uncertain(paper_example_database(), path)
        code = main(["mine", "-d", str(path), "--min-esup", "0.5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "2 frequent itemsets" in output

    def test_experiment_table9_quick(self, capsys):
        code = main(["experiment", "table9", "--scale", "0.001", "--max-points", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "table9" in output
        assert "P=" in output

    def test_experiment_fig4_quick(self, capsys):
        code = main(["experiment", "fig4", "--scale", "0.001", "--max-points", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fig4a" in output
        assert "uapriori" in output


class TestStoreCommands:
    def test_store_build_then_mine_store(self, tmp_path, capsys):
        source = tmp_path / "paper.txt"
        write_uncertain(paper_example_database(), source)
        store_dir = tmp_path / "paper-store"

        code = main(["store-build", "-d", str(source), "-o", str(store_dir)])
        assert code == 0
        built = capsys.readouterr().out
        assert str(store_dir) in built
        assert (store_dir / "manifest.json").exists()

        reference = main(["mine", "-d", str(source), "--min-esup", "0.5"])
        reference_out = capsys.readouterr().out
        assert reference == 0

        code = main(["mine", "--store", str(store_dir), "--min-esup", "0.5"])
        assert code == 0
        assert "2 frequent itemsets" in capsys.readouterr().out
        assert "2 frequent itemsets" in reference_out

    def test_store_build_leaves_generated_rows_unbuilt(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli

        loaded = []

        def load(name, **kwargs):
            loaded.append(cli_load_dataset(name, **kwargs))
            return loaded[-1]

        cli_load_dataset = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", load)
        store_dir = tmp_path / "accident-store"
        code = main(
            ["store-build", "-d", "accident", "--scale", "0.001", "-o", str(store_dir)]
        )
        assert code == 0
        (database,) = loaded
        assert database._rows is None
        output = capsys.readouterr().out
        assert f"{len(database)} transactions, {len(database.items())} items" in output

    def test_mine_store_from_environment(self, tmp_path, capsys, monkeypatch):
        source = tmp_path / "paper.txt"
        write_uncertain(paper_example_database(), source)
        store_dir = tmp_path / "env-store"
        assert main(["store-build", "-d", str(source), "-o", str(store_dir)]) == 0
        capsys.readouterr()

        monkeypatch.setenv("REPRO_STORE", str(store_dir))
        code = main(["mine", "--store", "--min-esup", "0.5"])
        assert code == 0
        assert "2 frequent itemsets" in capsys.readouterr().out

    def test_mine_sharded_across_workers(self, tmp_path, capsys):
        source = tmp_path / "paper.txt"
        write_uncertain(paper_example_database(), source)
        code = main(
            [
                "mine",
                "-d",
                str(source),
                "--min-esup",
                "0.5",
                "--workers",
                "2",
                "--shards",
                "2",
            ]
        )
        assert code == 0
        assert "2 frequent itemsets" in capsys.readouterr().out
