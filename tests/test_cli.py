"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFamilies:
    def test_lists_all(self):
        code, text = run_cli("families")
        assert code == 0
        for fam in ("cycle", "complete", "hypercube", "lollipop"):
            assert fam in text


class TestConstants:
    def test_prints_constants(self):
        code, text = run_cli("constants")
        assert code == 0
        assert "1.255" in text and "1.644" in text


class TestRun:
    def test_run_sequential(self):
        code, text = run_cli("run", "complete", "32", "--reps", "3")
        assert code == 0
        assert "sequential" in text and "E[τ]" in text

    def test_run_parallel_lazy(self):
        code, text = run_cli(
            "run", "cycle", "16", "--process", "parallel", "--reps", "2", "--lazy"
        )
        assert code == 0

    def test_run_rejects_lazy_ctu(self):
        code, _ = run_cli("run", "cycle", "16", "--process", "ctu", "--lazy")
        assert code == 2

    def test_run_rejects_lazy_before_building_graph(self, monkeypatch):
        # flag validation must precede graph construction: a bad flag combo
        # on a huge size must not first pay for (or crash in) the build
        from repro.theory import families

        def _fail_build(self, n, seed=None):
            raise AssertionError("graph must not be built for invalid flags")

        monkeypatch.setattr(families.Family, "build", _fail_build)
        code, _ = run_cli("run", "cycle", "16", "--process", "uniform", "--lazy")
        assert code == 2

    def test_run_rejects_bad_jobs_before_building_graph(self, monkeypatch):
        from repro.theory import families

        def _fail_build(self, n, seed=None):
            raise AssertionError("graph must not be built for invalid flags")

        monkeypatch.setattr(families.Family, "build", _fail_build)
        code, _ = run_cli("run", "cycle", "16", "--jobs", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "cycle", "16", "--reps", "0"),
            ("run", "cycle", "16", "--reps", "-3"),
            ("run", "cycle", "16", "--ci-rel", "0.1", "--max-reps", "0"),
            ("sweep", "cycle", "16", "32", "--reps", "0"),
            ("table1", "--reps", "0"),
            ("bounds", "cycle", "16", "--reps", "0"),
        ],
    )
    def test_rejects_non_positive_reps_before_building_graph(
        self, argv, monkeypatch, capsys
    ):
        from repro.theory import families

        def _fail_build(self, n, seed=None):
            raise AssertionError("graph must not be built for invalid flags")

        monkeypatch.setattr(families.Family, "build", _fail_build)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "must be >= 1, got" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [("run", "cycle", "1"), ("run", "cycle", "0"), ("bounds", "cycle", "0")],
    )
    def test_bad_size_exits_2_with_one_line(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cycle needs n >= 3" in err

    def test_run_jobs_and_batched_flags(self):
        code, text = run_cli(
            "run", "complete", "16", "--reps", "4", "--jobs", "2", "--batched", "false"
        )
        assert code == 0
        assert "E[τ]" in text

    def test_process_choices_track_driver_registry(self):
        # --process choices derive from PROCESS_DRIVERS, not a copied list
        from repro.experiments.runner import PROCESS_DRIVERS

        parser = build_parser()
        for proc in PROCESS_DRIVERS:
            args = parser.parse_args(["run", "cycle", "8", "--process", proc])
            assert args.process == proc
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "cycle", "8", "--process", "quantum"])

    def test_run_unknown_family(self):
        with pytest.raises(KeyError):
            run_cli("run", "petersen", "16")


    def test_run_precision_flag(self):
        code, text = run_cli(
            "run",
            "complete",
            "32",
            "--process",
            "parallel",
            "--ci-rel",
            "0.5",
            "--reps",
            "4",
            "--max-reps",
            "64",
        )
        assert code == 0
        assert "adaptive:" in text and "round(s)" in text

    def test_run_rejects_bad_precision_combo(self):
        # Precision validation errors surface as exit code 2, not tracebacks
        code, _ = run_cli(
            "run", "complete", "32", "--ci-rel", "-0.1"
        )
        assert code == 2


class TestSweep:
    def test_sweep_output(self):
        code, text = run_cli("sweep", "complete", "32", "64", "--reps", "2")
        assert code == 0
        assert "exponent" in text
        assert "constant" in text

    def test_sweep_single_realised_size_skips_fits(self):
        # 50, 60 and 64 all snap to the 64-vertex hypercube; the deduped
        # sweep has one size, so the CLI must explain rather than crash
        # on an unfittable single point
        code, text = run_cli("sweep", "hypercube", "50", "60", "64", "--reps", "1")
        assert code == 0
        assert "single realised size" in text
        assert "exponent" not in text


    def test_sweep_precision_flag(self):
        code, text = run_cli(
            "sweep",
            "complete",
            "32",
            "64",
            "--ci-rel",
            "0.5",
            "--reps",
            "2",
            "--max-reps",
            "32",
        )
        assert code == 0


class TestBounds:
    def test_bounds_table(self):
        code, text = run_cli("bounds", "cycle", "16", "--reps", "5")
        assert code == 0
        assert "Thm 3.1" in text and "Thm 3.6" in text and "Prop 3.9" in text

    def test_bounds_tree_row(self):
        code, text = run_cli("bounds", "binary_tree", "15", "--reps", "5")
        assert code == 0
        assert "Thm 3.7" in text
