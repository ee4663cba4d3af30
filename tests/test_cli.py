import dataclasses
import json
import sys
from fractions import Fraction

import pytest

from gwprofile import builtin_model, excursion, genfun, kernel, maps, oracle
from gwprofile.cli import main
from gwprofile.tree import decode

# Python's int-to-string digit limit, or 0 (none) on 3.10.0-3.10.6, which lack it
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# The flags each verify suite reads, and a value for each flag.
SUITE_FLAGS = {
    "counting-lemma": ["--max-pq"],
    "joint-law": ["--max-p", "--max-s"],
    "chain-law": ["--edges"],
    "profile-count": ["--max-edges"],
    "decomposition-roundtrip": ["--model", "--max-edges"],
    "schaeffer-roundtrip": ["--max-edges"],
    "kemperman": ["--p", "--s"],
}
FLAG_VALUES = {flag: "2" for flags in SUITE_FLAGS.values() for flag in flags}
FLAG_VALUES["--model"] = "builtin:geom-pm1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--model", "builtin:geom-pm1", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_model_spec(self, capsys):
        code, _, err = run(capsys, "sample", "--model", "urn:nope")
        assert code == 2
        assert err.startswith("gwprofile: error:")

    def test_runtime_error_is_one(self, capsys):
        # complete-binary has zero mass at odd edge counts
        code, _, err = run(
            capsys,
            "sample",
            "--model",
            "builtin:complete-binary",
            "--kind",
            "conditioned",
            "--edges",
            "3",
        )
        assert code == 1
        assert err.startswith("gwprofile: error: DomainError")

    @pytest.mark.parametrize(
        "argv, message",
        [(["sample", "--model", "builtin:geom-pm1", "--edges", "3"],
          "--edges applies only to --kind conditioned"),
         (["sample", "--model", "builtin:geom-pm1", "--kind", "excursion", "--edges", "3"],
          "--edges applies only to --kind conditioned"),
         (["sample", "--model", "builtin:geom-pm1", "--sign", "-"],
          "--sign applies only to --kind excursion"),
         (["sample", "--model", "builtin:geom-pm1", "--kind", "conditioned", "--edges", "2",
           "--sign", "+"],
          "--sign applies only to --kind excursion"),
         (["stats", "--model", "builtin:incomplete-binary", "--count", "5", "--alpha", "0.5"],
          "--alpha applies only to --test-kernel"),
         (["stats", "--model", "builtin:incomplete-binary", "--count", "5",
           "--min-visits", "3"],
          "--min-visits applies only to --test-kernel")],
    )
    def test_flag_the_mode_does_not_read_is_a_usage_error(
        self, capsys, tmp_path, argv, message
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"gwprofile: error: ConfigurationError: {message}\n"
        assert run(capsys, *argv, "--out", str(tmp_path / "o.txt"))[0] == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edit",
        [lambda cfg: cfg.update(offspring=[]),
         lambda cfg: cfg["offspring"].update(table=5),
         lambda cfg: cfg["displacement"].update(tables=[1]),
         lambda cfg: cfg["displacement"]["tables"].update({"1": [[5, "1/2"], [[1], "1/2"]]}),
         lambda cfg: cfg["displacement"]["tables"].update({"1": [[[-1], "1/2"], [[0.5], "1/2"]]}),
         lambda cfg: cfg["displacement"]["tables"].update({"1": [[[-1], "1/2"], [[True], "1/2"]]}),
         lambda cfg: cfg["displacement"]["tables"].update(x=cfg["displacement"]["tables"]
                                                          .pop("1")),
         lambda cfg: cfg["displacement"]["tables"].update({"01": [[[1], 1]]})],
        ids=["offspring-list", "table-int", "tables-list", "vector-int", "vector-float",
             "vector-bool", "table-key-x", "arity-twice"],
    )
    def test_malformed_model_config_is_one_usage_error_line(self, capsys, tmp_path, edit):
        cfg = {
            "offspring": {"kind": "finite-table", "table": ["1/4", "1/2", "1/4"]},
            "displacement": {
                "kind": "per-arity-table",
                "tables": {"1": [[[-1], "1/2"], [[1], "1/2"]], "2": [[[-1, 1], 1]]},
            },
        }
        edit(cfg)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "sample", "--model", f"file:{path}")
        assert (code, out) == (2, "")
        assert err.startswith("gwprofile: error: ConfigurationError: ")
        assert len(err.splitlines()) == 1
        out = tmp_path / "v.txt"
        code, _, _ = run(capsys, "verify", "--suite", "decomposition-roundtrip",
                         "--model", f"file:{path}", "--out", str(out))
        assert code == 2 and not out.exists()


class TestCountFlags:
    """Bad counts and test levels are usage errors (exit 2) at parse time."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "--model", "builtin:incomplete-binary", "--count", "0"],
             "argument --count: must be >= 1, got 0"),
            (["sample", "--model", "builtin:geom-pm1", "--count", "-3"],
             "argument --count: must be >= 1, got -3"),
            (["sample", "--model", "builtin:geom-pm1", "--workers", "0"],
             "argument --workers: must be >= 1, got 0"),
            (["stats", "--model", "builtin:incomplete-binary", "--workers", "-1"],
             "argument --workers: must be >= 1, got -1"),
            (["kernel", "--from", "1,0", "--smax", "-2"],
             "argument --smax: must be >= 0, got -2"),
            (["kernel", "--from", "1,0", "--smax", "x"],
             "argument --smax: invalid int value: 'x'"),
            (["sample", "--model", "builtin:geom-pm1", "--vertex-cap", "0"],
             "argument --vertex-cap: must be >= 1, got 0"),
            (["sample", "--model", "builtin:geom-pm1", "--rejection-cap", "0"],
             "argument --rejection-cap: must be >= 1, got 0"),
            (["stats", "--model", "builtin:incomplete-binary", "--vertex-cap", "0"],
             "argument --vertex-cap: must be >= 1, got 0"),
            (["genfun", "--model", "builtin:geom-pm1", "--order", "-1"],
             "argument --order: must be >= 0, got -1"),
            (["genfun", "--model", "builtin:geom-pm1", "--what", "f", "--pmax", "-1"],
             "argument --pmax: must be >= 0, got -1"),
            (["genfun", "--model", "builtin:geom-pm1", "--what", "f", "--qmax", "-1"],
             "argument --qmax: must be >= 0, got -1"),
            (["verify", "--suite", "counting-lemma", "--max-pq", "-3"],
             "argument --max-pq: must be >= 1, got -3"),
            (["verify", "--suite", "joint-law", "--max-p", "0"],
             "argument --max-p: must be >= 1, got 0"),
            (["verify", "--suite", "joint-law", "--max-s", "-1"],
             "argument --max-s: must be >= 0, got -1"),
            (["verify", "--suite", "chain-law", "--edges", "-1"],
             "argument --edges: must be >= 1, got -1"),
            (["verify", "--suite", "profile-count", "--max-edges", "0"],
             "argument --max-edges: must be >= 1, got 0"),
            (["verify", "--suite", "kemperman", "--p", "0"],
             "argument --p: must be >= 1, got 0"),
            (["verify", "--suite", "kemperman", "--s", "-1"],
             "argument --s: must be >= 0, got -1"),
            (["kernel", "--from", "1,0,0", "--edges", "-1"],
             "argument --edges: must be >= 0, got -1"),
            (["sample", "--model", "builtin:geom-pm1", "--kind", "conditioned",
              "--edges", "-1"],
             "argument --edges: must be >= 0, got -1"),
            (["stats", "--model", "builtin:incomplete-binary", "--max-level", "0"],
             "argument --max-level: must be >= 1, got 0"),
            (["stats", "--model", "builtin:incomplete-binary", "--min-visits", "-1"],
             "argument --min-visits: must be >= 0, got -1"),
            (["stats", "--model", "builtin:incomplete-binary", "--alpha", "-1"],
             "argument --alpha: must be in (0, 1), got -1.0"),
            (["stats", "--model", "builtin:incomplete-binary", "--alpha", "0"],
             "argument --alpha: must be in (0, 1), got 0.0"),
            (["stats", "--model", "builtin:incomplete-binary", "--alpha", "nan"],
             "argument --alpha: must be in (0, 1), got nan"),
            (["stats", "--model", "builtin:incomplete-binary", "--alpha", "1e9"],
             "argument --alpha: must be in (0, 1), got 1000000000.0"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(message)
        assert "Traceback" not in err

    def test_smallest_values_accepted(self, capsys):
        code, out, _ = run(capsys, "kernel", "--from", "1,0", "--smax", "0")
        assert code == 0
        assert out.splitlines() == ["r,s,probability", "0,0,5/8", "1,0,1/4"]
        code, out, _ = run(
            capsys, "genfun", "--model", "builtin:incomplete-binary", "--what", "f",
            "--pmax", "0", "--qmax", "0",
        )
        assert code == 0
        assert out.splitlines() == ["p,q,f_p_q", "0,0,1"]
        # seed 1 draws a single vertex first
        code, out, err = run(
            capsys, "sample", "--model", "builtin:geom-pm1", "--seed", "1",
            "--vertex-cap", "1", "--rejection-cap", "1",
        )
        assert (code, out) == (0, "0()\n")
        caps = json.loads(err.split("manifest: ", 1)[1])["caps"]
        assert caps == {"vertex_cap": 1, "rejection_cap": 1}
        code, out, _ = run(
            capsys, "sample", "--model", "builtin:geom-pm1", "--kind", "conditioned",
            "--edges", "0",
        )
        assert (code, out) == (0, "0()\n")
        code, out, _ = run(capsys, "kernel", "--from", "0,0,0", "--edges", "0")
        assert code == 0
        assert out.splitlines() == ["r,s,w,probability", "0,0,0,1"]
        for argv, line in [
            (("counting-lemma", "--max-pq", "1"), "PASS counting-lemma: 1 tuples checked"),
            (("joint-law", "--max-p", "1", "--max-s", "0"), "PASS joint-law: 4 cells checked"),
            (("chain-law", "--edges", "1"),
             "PASS chain-law V=1: 2 histories, 2 transitions, 0 discrepancies"),
            (("profile-count", "--max-edges", "1"), "PASS profile-count: 3 profiles checked"),
            (("kemperman", "--p", "1", "--s", "0"), "PASS kemperman: 4 cells checked"),
        ]:
            code, out, _ = run(capsys, "verify", "--suite", *argv)
            assert (code, out) == (0, line + "\n")
        code, out, _ = run(
            capsys, "stats", "--model", "builtin:incomplete-binary", "--count", "20",
            "--vertex-cap", "20", "--max-level", "1", "--min-visits", "0",
            "--test-kernel",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert {int(r[3]) for r in rows if r[0] == "census"} <= {0, 1}  # level 1 only
        assert ["test", "3", "1", "0", "0", ""] in rows  # a row visited once is tested


class TestSample:
    @pytest.mark.parametrize("flags, root", [([], "1"), (["--sign", "+"], "1"),
                                             (["--sign", "-"], "-1")])
    def test_excursion_sign(self, capsys, flags, root):
        code, out, _ = run(
            capsys, "sample", "--model", "builtin:incomplete-binary", "--kind", "excursion",
            "--count", "3", *flags,
        )
        assert code == 0
        assert [line.split("(")[0] for line in out.splitlines()] == [root] * 3

    def test_deterministic_and_worker_independent(self, capsys):
        args = ("sample", "--model", "builtin:geom-pm1", "--count", "8", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args, "--workers", "3")
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 8

    def test_manifest_written(self, capsys, tmp_path):
        out = str(tmp_path / "trees.txt")
        code, _, _ = run(
            capsys, "sample", "--model", "builtin:geom-pm1", "--count", "2", "--out", out
        )
        assert code == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["subcommand"] == "sample"
        assert manifest["model"] == "builtin:geom-pm1"
        assert manifest["seed"] == 0

    def test_manifest_records_the_argv_main_was_given(self, capsys, tmp_path):
        argv = ["sample", "--model", "builtin:geom-pm1", "--out", str(tmp_path / "t.txt")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "t.txt.manifest.json").read_text())
        assert manifest["argv"] == argv


    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "kind, cap",
        [(["--kind", "tree"], ["--vertex-cap", "5"]),
         (["--kind", "conditioned", "--edges", "2"], ["--rejection-cap", "3"])],
    )
    def test_capped_item_keeps_the_items_before_it(self, capsys, tmp_path, workers, kind, cap):
        base = ["sample", "--model", "builtin:geom-pm1", "--count", "20", "--seed", "0",
                *kind, "--workers", workers]
        full, capped = tmp_path / "full", tmp_path / "capped"
        assert main(base + ["--out", str(full)]) == 0
        code, _, err = run(capsys, *base, *cap, "--out", str(capped))
        assert code == 1
        [line] = [x for x in err.splitlines() if x.startswith("gwprofile: error:")]
        k = int(line.split("item ")[1].split(":")[0])
        assert line.startswith(f"gwprofile: error: ResourceLimitError: item {k}: ")
        assert 0 < k < 20
        written = capped.read_text().splitlines()
        assert written == full.read_text().splitlines()[:k]
        manifest = json.loads((tmp_path / "capped.manifest.json").read_text())
        assert manifest["outputs"] == [str(capped)]

    def test_capped_quadrangulation_lists_the_maps_written(self, capsys, tmp_path):
        for workers in ("1", "2"):
            prefix = str(tmp_path / f"q{workers}")
            code, _, err = run(
                capsys, "sample", "--model", "builtin:geom-pm01", "--kind",
                "quadrangulation", "--count", "6", "--vertex-cap", "5",
                "--rejection-cap", "2", "--workers", workers, "--out", prefix,
            )
            assert code == 1
            assert err.startswith("gwprofile: error: ResourceLimitError: item 2: ")
            manifest = json.loads(open(prefix + ".manifest.json").read())
            assert manifest["outputs"] == [prefix + ".0.csv", prefix + ".1.csv"]
            written = sorted(p.name for p in tmp_path.glob(f"q{workers}.*.csv"))
            assert written == [f"q{workers}.0.csv", f"q{workers}.1.csv"]

    def test_quadrangulation_is_worker_independent(self, capsys, tmp_path):
        files = {}
        for workers in ("1", "3"):
            prefix = str(tmp_path / f"q{workers}")
            code, _, _ = run(
                capsys, "sample", "--model", "builtin:geom-pm01", "--kind",
                "quadrangulation", "--count", "6", "--seed", "11",
                "--workers", workers, "--out", prefix,
            )
            assert code == 0
            files[workers] = [
                open(f"{prefix}.{i}.csv", "rb").read() for i in range(6)
            ]
        assert files["1"] == files["3"]

    def test_quadrangulation_manifest_lists_the_files_written(self, capsys, tmp_path):
        prefix = str(tmp_path / "q")
        code, _, _ = run(
            capsys, "sample", "--model", "builtin:geom-pm01", "--kind", "quadrangulation",
            "--count", "2", "--vertex-cap", "50", "--out", prefix,
        )
        assert code == 0
        manifest = json.loads(open(prefix + ".manifest.json").read())
        assert manifest["outputs"] == [prefix + ".0.csv", prefix + ".1.csv"]
        assert all((tmp_path / name).is_file() for name in ("q.0.csv", "q.1.csv"))


    @pytest.mark.parametrize("model", ["builtin:geom-pm1", "builtin:incomplete-binary"])
    def test_quadrangulation_refuses_other_models(self, capsys, tmp_path, model):
        code, out, err = run(
            capsys, "sample", "--model", model, "--kind", "quadrangulation",
            "--seed", "3", "--out", str(tmp_path / "q"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("gwprofile: error: ConfigurationError: ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestKernel:
    def test_row_contains_absorption(self, capsys):
        code, out, _ = run(capsys, "kernel", "--from", "1,0", "--smax", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,s,probability"
        assert "0,0,5/8" in lines

    def test_conditioned(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--from", "1,0,3", "--edges", "4", "--smax", "4"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        from fractions import Fraction

        assert sum(Fraction(r[3]) for r in rows) == 1

    def test_readme_conditioned_row(self, capsys):
        # One edge is left and the excursion from (1,0,3) is a single vertex.
        code, out, _ = run(
            capsys, "kernel", "--from", "1,0,3", "--edges", "4", "--smax", "4"
        )
        assert (code, out.splitlines()) == (0, ["r,s,w,probability", "0,0,4,1"])

    def test_bad_state(self, capsys):
        code, _, err = run(capsys, "kernel", "--from", "1;0")
        assert code == 2 and "error" in err

    def test_start_state_beyond_smax(self, capsys):
        # f_1(20) > 0: the f table must reach the start state's q = 20.
        _, wide, _ = run(capsys, "kernel", "--from", "1,20", "--smax", "20")
        header, *rows = wide.splitlines()
        for smax, top in ([], 10), (["--smax", "19"], 19):
            code, out, _ = run(capsys, "kernel", "--from", "1,20", *smax)
            assert code == 0
            assert out.splitlines() == [header] + [
                row for row in rows if int(row.split(",")[1]) <= top
            ]

    @pytest.mark.parametrize(
        "state",
        [["0,3"], ["1,-2"], ["2,1,9", "--edges", "5"], ["3,0,4", "--edges", "5"]],
    )
    def test_invalid_state_is_a_usage_error_before_output(self, capsys, tmp_path, state):
        out = tmp_path / "k.csv"
        for to_file in ([], ["--out", str(out)]):
            code, stdout, err = run(capsys, "kernel", "--from", *state, *to_file)
            assert (code, stdout) == (2, "")
            assert err.startswith("gwprofile: error: ConfigurationError: ")
            assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_counting_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counting-lemma", "--max-pq", "4")
        assert code == 0
        assert out.startswith("PASS counting-lemma")

    def test_chain_law(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "chain-law", "--edges", "3")
        assert code == 0 and "0 discrepancies" in out

    def test_manifest_records_the_model(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "decomposition-roundtrip",
            "--model", "builtin:geom-pm1", "--max-edges", "1",
        )
        assert code == 0 and out.startswith("PASS decomposition-roundtrip")
        assert json.loads(err.split("manifest: ", 1)[1])["model"] == "builtin:geom-pm1"

    @pytest.mark.parametrize(
        "suite",
        ["chain-law", "counting-lemma", "joint-law", "kemperman", "profile-count",
         "schaeffer-roundtrip"],
    )
    def test_model_is_a_usage_error_where_ignored(self, capsys, suite):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--edges", "2",
            "--model", "builtin:geom-pm1",
        )
        assert (code, out) == (2, "")
        assert err == (
            "gwprofile: error: ConfigurationError: "
            "--model applies only to --suite decomposition-roundtrip\n"
        )

    @pytest.mark.parametrize(
        "suite, line",
        [("counting-lemma", "PASS counting-lemma: 1275 tuples checked"),
         ("joint-law", "PASS joint-law: 415 cells checked"),
         ("chain-law", "PASS chain-law V=5: 98 histories, 60 transitions, 0 discrepancies"),
         ("profile-count", "PASS profile-count: 50 profiles checked"),
         ("decomposition-roundtrip", "PASS decomposition-roundtrip: 4722 cases checked"),
         ("schaeffer-roundtrip", "PASS schaeffer-roundtrip: 2580 cases checked"),
         ("kemperman", "PASS kemperman: 30 cells checked")],
    )
    def test_default_summary_line(self, capsys, suite, line):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert (code, out) == (0, line + "\n")

    @pytest.mark.parametrize(
        "argv, module, name, corrupt, out",
        [
            (["counting-lemma", "--max-pq", "3"], oracle, "enumerate_bicoloured_forests",
             lambda real: lambda n, plus, minus: real(n, plus, minus) + ((n, plus) == (2, (0, 1))),
             "FAIL counting-lemma n=2 n_plus=(0, 1) n_minus=(0,): 3 != 2\n"
             "FAIL counting-lemma: 9 tuples checked\n"),
            (["joint-law", "--max-p", "1", "--max-s", "1"], oracle, "enumerate_marked_forests",
             lambda real: lambda nu, p, s: {**real(nu, p, s), (0, 1): Fraction(1, 2)}
             if (p, s) == (1, 1) else real(nu, p, s),
             "FAIL joint-law p=1 s=1 (q,r)=(0,1): 1/2 != 81/2800\n"
             "FAIL joint-law: 13 cells checked\n"),
            (["chain-law", "--edges", "2"], kernel, "cond_transition_prob",
             lambda real: lambda f, V, a, b: real(f, V, a, b) * (2 if a == (1, 0, 0) else 1),
             "FAIL chain-law V=2: ['transition (1, 0, 0) -> (1, 0, 1): law 1, kernel 2']"
             " != []\nFAIL chain-law V=2: 7 histories, 6 transitions, 1 discrepancies\n"),
            (["profile-count", "--max-edges", "1"], kernel, "count_profile",
             lambda real: lambda plus, check: real(plus, check) + (plus == ((1, 0),)),
             "FAIL profile-count ((1, 0),) (): 2 != 1\n"
             "FAIL profile-count: 3 profiles checked\n"),
            (["decomposition-roundtrip", "--model", "builtin:geom-pm1", "--max-edges", "1"],
             excursion, "reconstruct",
             lambda real: lambda d: decode("0()"),
             "FAIL decomposition-roundtrip 0(-()) m=1: LabelledPlaneTree('0()')"
             " != LabelledPlaneTree('0(-())')\n"
             "FAIL decomposition-roundtrip 0(-()) m=-1: LabelledPlaneTree('0()')"
             " != LabelledPlaneTree('0(-())')\n"
             "FAIL decomposition-roundtrip 0(+()) m=1: LabelledPlaneTree('0()')"
             " != LabelledPlaneTree('0(+())')\n"
             "FAIL decomposition-roundtrip 0(+()) m=-1: LabelledPlaneTree('0()')"
             " != LabelledPlaneTree('0(+())')\n"
             "FAIL decomposition-roundtrip: 6 cases checked\n"),
            (["schaeffer-roundtrip", "--max-edges", "1"], maps, "verify_profile_relations",
             lambda real: lambda q: maps.ProfileReport(1, ("P_1 off by one",)),
             "".join(
                 f"FAIL schaeffer-roundtrip {t} bit={b}: ((LabelledPlaneTree('{t}'), {b}),"
                 f" ('P_1 off by one',)) != ((LabelledPlaneTree('{t}'), {b}), ())\n"
                 for t in ("0(-())", "0(0())", "0(+())") for b in (0, 1)
             ) + "FAIL schaeffer-roundtrip: 6 cases checked\n"),
            (["kemperman", "--p", "1", "--s", "0"], oracle, "kemperman_check",
             lambda real: lambda nu, p, s: {**real(nu, p, s), (0, 0): (1, 2)},
             "FAIL kemperman p=1 s=0 (0, 0): 1 != 2\nFAIL kemperman: 4 cells checked\n"),
        ],
        ids=list(SUITE_FLAGS),
    )
    def test_a_corrupted_route_fails_and_names_the_case(
        self, capsys, monkeypatch, argv, module, name, corrupt, out
    ):
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        assert run(capsys, "verify", "--suite", *argv)[:2] == (1, out)

    @pytest.mark.parametrize(
        "suite, flag",
        [(suite, flag) for suite, flags in SUITE_FLAGS.items()
         for flag in FLAG_VALUES if flag not in flags],
    )
    def test_flag_the_suite_does_not_read_is_a_usage_error(self, capsys, tmp_path, suite, flag):
        *rest, last = [s for s, flags in SUITE_FLAGS.items() if flag in flags]
        readers = f"{', '.join(rest)} or {last}" if rest else last
        argv = ["verify", "--suite", suite, flag, FLAG_VALUES[flag]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"gwprofile: error: ConfigurationError: {flag} applies only to --suite {readers}\n"
        )
        assert run(capsys, *argv, "--out", str(tmp_path / "v.txt"))[0] == 2
        assert list(tmp_path.iterdir()) == []


class TestGenfun:
    @pytest.mark.parametrize(
        "what, flags, message",
        [("nu", ["--pmax", "7"], "--pmax applies only to --what f"),
         ("nu", ["--qmax", "3"], "--qmax applies only to --what f"),
         ("f", ["--order", "500"], "--order applies only to --what nu")],
    )
    def test_flag_is_a_usage_error_where_ignored(self, capsys, what, flags, message):
        code, out, err = run(
            capsys, "genfun", "--model", "builtin:geom-pm1", "--what", what, *flags
        )
        assert (code, out) == (2, "")
        assert err == f"gwprofile: error: ConfigurationError: {message}\n"

    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "genfun", "--model", "builtin:geom-pm1")
        assert code == 0 and len(out.splitlines()) == 1 + 41
        code, out, _ = run(capsys, "genfun", "--model", "builtin:geom-pm1", "--what", "f")
        assert code == 0 and len(out.splitlines()) == 1 + 6 * 11

    def test_rows_past_the_int_digit_limit(self, capsys):
        # ν_1801's denominator is the first with more than 4,300 digits,
        # Python's int-to-string limit; the writer lifts the limit and
        # restores it
        limit = digit_limit()
        code, out, _ = run(
            capsys, "genfun", "--model", "builtin:incomplete-binary", "--order", "1801"
        )
        assert digit_limit() == limit
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 1803)
        nu = genfun.nu_table(builtin_model("incomplete-binary"), 1801)
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert lines[-1] == f"1801,{nu[1801]}"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_digit_limit_restored_after_a_failing_writer(self, capsys, monkeypatch):
        def failing(model, order):
            raise genfun.IntegrityError("no table")

        limit = digit_limit()
        monkeypatch.setattr(genfun, "nu_table", failing)
        code, _, err = run(capsys, "genfun", "--model", "builtin:geom-pm1")
        assert (code, err) == (1, "gwprofile: error: IntegrityError: no table\n")
        assert digit_limit() == limit


class TestDecompose:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "decompose", "--tree", "0(+()+())", "--level", "1")
        assert code == 0
        record = json.loads(out)
        assert record["level"] == 1
        assert len(record["forest_shape"]) == 2

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "decompose", "--level", "1")
        assert code == 2

    def test_root_label_past_the_int_digit_limit(self, capsys):
        # parsing keeps Python's 4,300-digit limit
        code, out, err = run(capsys, "decompose", "--tree", "1" * 4301 + "()", "--level", "1")
        assert (code, out) == (2, "")
        assert err.startswith("gwprofile: error: TreeParseError: root label too long")


class TestRuntimeErrors:
    """Failures outside the package's own errors: one line, exit 1."""

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "decompose", "--in", str(tmp_path / "missing.txt"), "--level", "1"
        )
        assert code == 1
        assert err.startswith("gwprofile: error: FileNotFoundError:")
        assert len(err.splitlines()) == 1

    def test_unwritable_output(self, capsys, tmp_path):
        out = str(tmp_path / "missing-dir" / "out.jsonl")
        code, _, err = run(
            capsys, "decompose", "--tree", "0(+())", "--level", "1", "--out", out
        )
        assert code == 1
        assert err.startswith("gwprofile: error: FileNotFoundError:")
        assert len(err.splitlines()) == 1

    def test_undecodable_input(self, capsys, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_bytes(b"0(+())\n\xff\n")
        code, _, err = run(capsys, "decompose", "--in", str(path), "--level", "1")
        assert code == 1
        assert err.startswith("gwprofile: error: UnicodeDecodeError:")
        assert len(err.splitlines()) == 1

    def test_forest_too_deep_for_json(self, capsys):
        # Every edge of the zigzag crosses level 1/2, so the forest is a
        # path of 5,000 excursions, deeper than the recursion limit: its
        # record nests 5,001 lists and is still written.
        tree = "0" + "(+(-" * 2500 + "()" + "))" * 2500
        code, out, _ = run(capsys, "decompose", "--tree", tree, "--level", "1")
        assert code == 0
        shape = '"forest_shape": ' + "[" * 5001 + "]" * 5001 + ', "level": 1,'
        assert shape in out

    def test_out_of_memory(self, capsys, monkeypatch):
        import gwprofile.cli as cli

        def exhausted(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_decompose", exhausted)
        code, _, err = run(capsys, "decompose", "--tree", "0()", "--level", "1")
        assert (code, err) == (1, "gwprofile: error: MemoryError: \n")


class TestMaps:
    def test_roundtrip_via_files(self, capsys, tmp_path):
        path = str(tmp_path / "map.csv")
        code, _, _ = run(
            capsys, "maps", "--from-tree", "0(-(0()))", "--orientation", "1",
            "--out", path,
        )
        assert code == 0
        code, out, _ = run(capsys, "maps", "--in", path, "--to-tree", "--check")
        assert code == 0
        assert out.splitlines()[0] == "0(-(0()))\t1"
        assert "PASS profile-relations" in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: ["pointed_vertex,99" if r.startswith("pointed_vertex,") else r
                           for r in rows],
             "IntegrityError: pointed vertex is not a dart"),
            (lambda rows: rows + [rows[-1].split(",")[0] + ",0,0"],
             "DomainError: malformed map CSV"),
        ],
        ids=["point-not-a-dart", "dart-listed-twice"],
    )
    def test_bad_map_is_one_line(self, capsys, tmp_path, edit, message):
        path = tmp_path / "map.csv"
        run(capsys, "maps", "--from-tree", "0(-(0()))", "--out", str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        code, out, err = run(capsys, "maps", "--in", str(path), "--to-tree")
        assert (code, out) == (1, "")
        assert err.startswith("gwprofile: error: " + message)
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("bit", ["0", "1"])
    def test_map_input_rejects_orientation(self, capsys, tmp_path, bit):
        # a saved map carries its own bit; a given one would be ignored
        path = str(tmp_path / "map.csv")
        run(capsys, "maps", "--from-tree", "0(-(0()))", "--out", path)
        code, out, err = run(
            capsys, "maps", "--in", path, "--orientation", bit, "--to-tree"
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "gwprofile: error: ConfigurationError: --orientation applies only to --from-tree"
        )
        assert len(err.splitlines()) == 1

    def test_from_tree_writes_the_same_bytes_to_stdout_as_to_a_file(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        argv = ("maps", "--from-tree", "0(-(0())+(0()))", "--orientation", "1")
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == path.read_bytes()
        assert out.startswith("root_dart,") and out.endswith("\r\n")

    @pytest.mark.parametrize("flag", ["--to-tree", "--profile", "--check"])
    def test_from_tree_rejects_map_flags(self, capsys, flag):
        code, out, err = run(capsys, "maps", "--from-tree", "0(+())", flag)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"gwprofile: error: ConfigurationError: {flag} applies only to --in"
        )

    def test_check_failure_prints_through_the_verify_runner(self, capsys, tmp_path, monkeypatch):
        # Misalign the ball profile by one radius, as test_maps' negative control does.
        path = str(tmp_path / "map.csv")
        run(capsys, "maps", "--from-tree", "0(-(0()))", "--orientation", "1", "--out", path)
        real = maps.ball_profile

        def shifted(q):
            s = real(q)
            return dataclasses.replace(s, d_star=s.d_star + 1)

        monkeypatch.setattr(maps, "ball_profile", shifted)
        rep = maps.verify_profile_relations(maps.load_map(path))
        assert rep.mismatches
        code, out, _ = run(capsys, "maps", "--in", path, "--check")
        assert code == 1
        assert out.splitlines() == [
            f"FAIL profile-relations {path}: {rep.mismatches} != ()",
            f"FAIL profile-relations: {rep.checked} checks, {len(rep.mismatches)} mismatches",
        ]


class TestStats:
    def test_census_and_kernel_test(self, capsys):
        code, out, _ = run(
            capsys,
            "stats",
            "--model",
            "builtin:incomplete-binary",
            "--count",
            "3000",
            "--seed",
            "2026",
            "--test-kernel",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,")
        assert any(line.startswith("test,1,0,") for line in lines)
        # --min-visits defaults to 500 under --test-kernel
        rows = [line.split(",") for line in lines]
        visits = {}
        for kind, p, q, _, _, n in rows:
            if kind == "census":
                visits[(p, q)] = visits.get((p, q), 0) + int(n)
        tested = {(p, q) for kind, p, q, *_ in rows if kind == "test"}
        assert tested == {row for row, n in visits.items() if n >= 500 and row != ("0", "0")}

    def test_alpha_is_family_wise(self, capsys):
        # The run fails exactly when some row's p-value is <= alpha / rows.
        args = ("stats", "--model", "builtin:incomplete-binary", "--count", "2000",
                "--seed", "7", "--min-visits", "50", "--test-kernel")
        code, out, _ = run(capsys, *args, "--alpha", "1e-12")
        assert code == 0
        p_values = [float(line.split(",")[5]) for line in out.splitlines()
                    if line.startswith("test,") and line.split(",")[5]]
        n, p_min = len(p_values), min(p_values)
        assert n >= 3
        code, _, _ = run(capsys, *args, "--alpha", repr(p_min * n / 2))
        assert code == 0
        code, _, _ = run(capsys, *args, "--alpha", repr(p_min * n * 2))
        assert code == 1

    def test_kernel_test_rejects_other_models_before_sampling(self, capsys, tmp_path):
        out = tmp_path / "census.csv"
        code, _, err = run(
            capsys, "stats", "--model", "builtin:geom-pm1", "--count", "300",
            "--vertex-cap", "2000", "--test-kernel", "--out", str(out),
        )
        assert code == 2
        assert "--test-kernel requires --model builtin:incomplete-binary" in err
        assert not out.exists()

    def test_kernel_table_covers_the_tested_rows(self, capsys):
        # Row (56, 44) lies beyond a fixed 40 x 35 table of f_p(q).
        code, out, _ = run(
            capsys, "stats", "--model", "builtin:incomplete-binary", "--count", "20",
            "--max-level", "1", "--min-visits", "0", "--test-kernel",
        )
        assert code == 0
        assert any(line.startswith("test,56,44,") for line in out.splitlines())

    def test_step_beyond_the_kernel_rows_is_one_line(self, capsys):
        # Row (113, 103) saw a step to s = 66; kernel rows stop at s = 30.
        code, _, err = run(
            capsys, "stats", "--model", "builtin:incomplete-binary", "--count", "50",
            "--max-level", "1", "--min-visits", "0", "--test-kernel",
        )
        assert code == 1
        assert err == (
            "gwprofile: error: DomainError: row 113,103 stepped to 86,66, "
            "beyond the kernel rows' s <= 30\n"
        )
