import hashlib
import json

import pytest

from ldpgauss import cli


def read(path):
    return path.read_bytes()


def exit_code(argv):
    """cli.main's exit code, also when argparse rejects argv."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# the exact stdout of `ldpgauss audit --eps 0.1,0.5,1,2,10`
AUDIT_STDOUT = """\
ok rr1 eps=0.1 max_ratio=1.1051709180756475 bound=1.1051709180756477
ok kv_rr2 eps=0.1 max_ratio=1.1051709180756477 bound=1.1051709180756477
ok one_round_kv_rr2 eps=0.1 max_ratio=1.1051709180756477 bound=1.1051709180756477
ok uv_rr2 eps=0.1 max_log_ratio=0.10000000000000053 bound=0.1
ok one_round_uv_rr2 eps=0.1 max_log_ratio=0.04166666666666696 bound=0.1
ok rr1 eps=0.5 max_ratio=1.6487212707001278 bound=1.6487212707001282
ok kv_rr2 eps=0.5 max_ratio=1.6487212707001284 bound=1.6487212707001282
ok one_round_kv_rr2 eps=0.5 max_ratio=1.6487212707001284 bound=1.6487212707001282
ok uv_rr2 eps=0.5 max_log_ratio=0.5000000000000004 bound=0.5
ok one_round_uv_rr2 eps=0.5 max_log_ratio=0.20833333333333393 bound=0.5
ok rr1 eps=1.0 max_ratio=2.7182818284590455 bound=2.718281828459045
ok kv_rr2 eps=1.0 max_ratio=2.7182818284590455 bound=2.718281828459045
ok one_round_kv_rr2 eps=1.0 max_ratio=2.7182818284590455 bound=2.718281828459045
ok uv_rr2 eps=1.0 max_log_ratio=1.0000000000000004 bound=1.0
ok one_round_uv_rr2 eps=1.0 max_log_ratio=0.41666666666666696 bound=1.0
ok rr1 eps=2.0 max_ratio=7.389056098930653 bound=7.38905609893065
ok kv_rr2 eps=2.0 max_ratio=7.3890560989306415 bound=7.38905609893065
ok one_round_kv_rr2 eps=2.0 max_ratio=7.3890560989306415 bound=7.38905609893065
ok uv_rr2 eps=2.0 max_log_ratio=2.000000000000001 bound=2.0
ok one_round_uv_rr2 eps=2.0 max_log_ratio=0.8333333333333339 bound=2.0
ok rr1 eps=10.0 max_ratio=22026.465794799664 bound=22026.465794806718
ok kv_rr2 eps=10.0 max_ratio=22026.465794828076 bound=22026.465794806718
ok one_round_kv_rr2 eps=10.0 max_ratio=22026.465794828076 bound=22026.465794806718
ok uv_rr2 eps=10.0 max_log_ratio=10.0 bound=10.0
ok one_round_uv_rr2 eps=10.0 max_log_ratio=4.16666666666667 bound=10.0
"""


def args_file(tmp_path, *lines):
    """Write one argument per line to a file; return the argument naming it."""
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


def simulate_args(tmp_path, **extra):
    args = [
        "simulate", "--protocol", "kv2", "--n", "4096", "--eps", "1", "--beta", "0.05",
        "--mu", "10", "--sigma", "1", "--k", "256", "--trials", "3", "--seed", "7",
        "--out", str(tmp_path),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestSimulate:
    def test_success_writes_per_trial_rows(self, tmp_path, capsys):
        assert cli.main(simulate_args(tmp_path)) == 0
        text = (tmp_path / "results.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 1 + 3  # header + one row per trial
        assert lines[0].startswith("protocol,n,eps,mu,sigma,trial,mu_hat1")
        assert "np.float64" not in text  # plain shortest-roundtrip floats only
        assert (tmp_path / "summary.csv").exists()
        assert "err_p50=" in capsys.readouterr().out

    def test_mode_mismatch_exits_2(self, tmp_path):
        args = simulate_args(tmp_path) + ["--sigma-min", "0.5"]
        assert cli.main(args) == 2

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert cli.main(["simulate", "--protocol", "kv2", "--out", str(tmp_path)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli.main(simulate_args(out1)) == 0
        assert cli.main(simulate_args(out2)) == 0
        assert read(out1 / "results.csv") == read(out2 / "results.csv")
        assert read(out1 / "summary.csv") == read(out2 / "summary.csv")

    def test_transcript_comes_from_the_harness_run(self, tmp_path, monkeypatch):
        from ldpgauss import protocols

        runner = protocols.RUNNERS["kv2"]
        calls = []

        def counting_runner(config, samples, streams):
            calls.append(streams.trial_index)
            return runner(config, samples, streams)

        monkeypatch.setitem(protocols.RUNNERS, "kv2", counting_runner)
        out = tmp_path / "not-yet-made"
        transcript = out / "run.jsonl"
        assert cli.main(simulate_args(out) + ["--transcript", str(transcript)]) == 0
        assert len(calls) == 3  # one runner call per trial, none extra for the transcript
        outcome = json.loads(transcript.read_text().splitlines()[-1])["outcome"]
        first_row = (out / "results.csv").read_text().splitlines()[1].split(",")
        assert first_row[5] == "0" and float(first_row[8]) == outcome["mu_hat2"]

    def test_args_file_with_flag_override(self, tmp_path):
        path = args_file(tmp_path, "--protocol=kv2", "--n=4096", "--eps=1", "--beta=0.05",
                         "--mu=10", "--sigma=1", "--k=256", "--trials=2", "--seed=7")
        assert exit_code(["simulate", path, "--trials", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # the later flag overrides the file's --trials=2

    def test_args_file_flag_naming_no_option_exits_2(self, tmp_path, capsys):
        path = args_file(tmp_path, "--levles=8")
        assert exit_code(simulate_args(tmp_path) + [path]) == 2
        assert "--levles" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("simulate", "--eps=one"),
        ("simulate", "--n=4096.0"),
        ("simulate", "--k=256.5"),
        ("simulate", "--protocol=kv3"),
        ("sweep", "--n-grid=4096,x"),
    ])
    def test_args_file_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command, line):
        size = "--n-grid=4096,8192" if command == "sweep" else "--n=4096"
        path = args_file(tmp_path, "--protocol=kv2", size, "--eps=1", "--mu=10", "--sigma=1",
                         "--k=256", "--trials=1", f"--out={tmp_path}", line)
        assert exit_code([command, path]) == 2
        assert f"argument {line.split('=')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_args_file_grids(self, tmp_path):
        path = args_file(tmp_path, "--n-grid=4096,8192", "--eps-grid=0.5,1")
        args = ["sweep", path, "--protocol", "kv2", "--mu", "10", "--sigma", "1",
                "--k", "256", "--trials", "1", "--out", str(tmp_path)]
        assert exit_code(args) == 0
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 4

    def test_missing_args_file_exits_2(self, tmp_path, capsys):
        assert exit_code(simulate_args(tmp_path) + [f"@{tmp_path / 'absent.args'}"]) == 2
        assert "absent.args" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_zero_levels_exits_2(self, tmp_path, capsys):
        args = simulate_args(tmp_path)
        args[args.index("--k"):args.index("--k") + 2] = ["--levels", "0"]
        assert cli.main(args) == 2
        assert "levels must be" in capsys.readouterr().err

    def test_proof_constants_flag_is_gone(self, tmp_path, capsys):
        assert exit_code(simulate_args(tmp_path) + ["--proof-constants"]) == 2
        assert "--proof-constants" in capsys.readouterr().err

    def test_proof_constants_in_an_args_file_exits_2(self, tmp_path, capsys):
        path = args_file(tmp_path, "--proof-constants")
        assert exit_code(simulate_args(tmp_path) + [path]) == 2
        assert "--proof-constants" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "replay"])
    def test_k2_flag_is_gone(self, tmp_path, capsys, command):
        # refinement subgroups split the second half evenly; no size is set
        if command == "replay":
            args = ["replay", "--protocol", "kv1", "--n", "4096", "--eps", "1", "--sigma", "1",
                    "--transcript", str(tmp_path / "t.jsonl"), "--k2", "7"]
        else:
            args = [command] + simulate_args(tmp_path, protocol="kv1", k2=7)[1:]
        assert exit_code(args) == 2
        assert "--k2" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_k2_in_an_args_file_exits_2(self, tmp_path, capsys):
        path = args_file(tmp_path, "--k2=7")
        assert exit_code(simulate_args(tmp_path, protocol="kv1") + [path]) == 2
        assert "--k2=7" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    # each prefix names one option unambiguously, and is still refused
    ABBREVIATED = [("--protocol", "--prot"), ("--eps", "--ep"), ("--levels", "--lev"),
                   ("--trials", "--tri"), ("--transcript", "--trans")]

    def full_args(self, tmp_path):
        return ["--protocol", "kv2", "--n", "4096", "--eps", "1", "--mu", "10", "--sigma", "1",
                "--levels", "8", "--trials", "1", "--out", str(tmp_path / "out"),
                "--transcript", str(tmp_path / "t.jsonl")]

    def test_full_option_names_run(self, tmp_path):
        assert exit_code(["simulate", *self.full_args(tmp_path)]) == 0

    @pytest.mark.parametrize("full,prefix", ABBREVIATED)
    def test_abbreviated_option_exits_2(self, tmp_path, capsys, full, prefix):
        args = self.full_args(tmp_path)
        args[args.index(full)] = prefix
        assert exit_code(["simulate", *args]) == 2
        assert prefix in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("full,prefix", ABBREVIATED)
    def test_abbreviated_option_in_an_args_file_exits_2(self, tmp_path, capsys, full, prefix):
        args = self.full_args(tmp_path)
        at = args.index(full)
        path = args_file(tmp_path, f"{prefix}={args[at + 1]}")
        del args[at:at + 2]
        assert exit_code(["simulate", *args, path]) == 2
        assert prefix in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,prefix", [
        ("sweep", "--n-gr=4096,8192"), ("audit", "--ep=1"), ("replay", "--trans=t.jsonl"),
    ])
    def test_every_command_refuses_abbreviations(self, capsys, command, prefix):
        assert exit_code([command, prefix]) == 2
        assert prefix.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--k", "--k1", "--beta", "--trials"])
    def test_zero_is_a_value_not_unset(self, tmp_path, capsys, flag):
        # 0 is out of range for each of these; it must not mean "use the default"
        args = simulate_args(tmp_path)
        if flag == "--k1":
            args[args.index("--k")] = flag
        args[args.index(flag) + 1] = "0"
        assert cli.main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


class TestSweep:
    def test_two_point_slope(self, tmp_path, capsys):
        args = [
            "sweep", "--protocol", "kv2", "--n-grid", "4096,16384", "--eps", "1",
            "--mu", "10", "--sigma", "1", "--levels", "8", "--trials", "5",
            "--seed", "3", "--out", str(tmp_path),
        ]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "slope eps=1.0 mu=10.0 sigma=1.0: " in out
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2

    @pytest.mark.parametrize("grid", [
        ["--n-grid", "4096", "--eps", "1"], ["--n-grid", "4096,4096", "--eps", "1"],
        ["--n", "4096", "--eps-grid", "1,1"],
    ])
    def test_single_cell_slope_absent(self, tmp_path, capsys, grid):
        args = [
            "sweep", "--protocol", "kv2", *grid, "--mu", "10", "--sigma", "1",
            "--k", "256", "--trials", "2", "--out", str(tmp_path),
        ]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "slope_vs_n" not in out
        assert "slope eps=1.0 mu=10.0 sigma=1.0: absent" in out
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert {row.rsplit(",", 1)[1] for row in rows} == {""}

    def test_sigma_grid_without_scalar_sigma(self, tmp_path):
        args = [
            "sweep", "--protocol", "kv2", "--n-grid", "4096", "--eps", "1", "--mu", "10",
            "--sigma-grid", "1,2", "--k", "256", "--trials", "2", "--out", str(tmp_path),
        ]
        assert cli.main(args) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["1.0", "2.0"]

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_grid_with_a_negative_first_value_is_joined_by_equals(self, tmp_path, capsys, source):
        # argparse reads a value that starts with "-" and is no plain number
        # as an option, so only "--mu-grid=-3,5" hands it to --mu-grid
        args = [
            "sweep", "--protocol", "kv2", "--n-grid", "4096", "--eps", "1", "--sigma", "1",
            "--k", "256", "--trials", "2", "--out", str(tmp_path),
        ]

        def spelled(*argv):
            return [args_file(tmp_path, *argv)] if source == "file" else list(argv)

        assert exit_code(args + spelled("--mu-grid", "-3,5")) == 2
        assert "argument --mu-grid: expected one argument" in capsys.readouterr().err
        with pytest.warns(UserWarning, match="outside the searchable range"):
            assert cli.main(args + spelled("--mu-grid=-3,5")) == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["-3.0", "5.0"]

    @pytest.mark.parametrize("name,grid", [
        ("n", "4096,8192"), ("eps", "1,2"), ("mu", "5,10"), ("sigma", "1,2"),
    ])
    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_scalar_beside_its_grid_exits_2(self, tmp_path, capsys, name, grid, source):
        # the grid would silently replace the scalar
        args = [
            "sweep", "--protocol", "kv2", "--n", "4096", "--eps", "1", "--mu", "10",
            "--sigma", "1", "--k", "256", "--trials", "2", "--out", str(tmp_path),
        ]
        if source == "flags":
            args += [f"--{name}-grid", grid]
        else:
            args.append(args_file(tmp_path, f"--{name}-grid={grid}"))
        assert exit_code(args) == 2
        assert f"--{name} or --{name}-grid" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("flag,message", [
        ("--n", "n must be even and at least 2, got 0"),
        ("--eps", "eps must be positive, got 0.0"),
        ("--sigma", "sigma must be positive, got 0.0"),
    ])
    def test_zero_scalar_is_a_value_not_unset(self, tmp_path, capsys, flag, message):
        args = [
            "sweep", "--protocol", "kv2", "--n", "4096", "--eps", "1", "--mu", "10",
            "--sigma", "1", "--k", "256", "--trials", "2", "--out", str(tmp_path),
        ]
        args[args.index(flag) + 1] = "0"
        assert cli.main(args) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("protocol,flag,value", [
    ("kv2", "--sigma", "inf"), ("uv1", "--sigma-max", "inf"), ("kv2", "--mu", "inf"), ("kv2", "--mu", "nan"),
])
def test_non_finite_value_exits_2_naming_it(tmp_path, capsys, protocol, flag, value):
    args = [
        "simulate", "--protocol", protocol, "--n", "4096", "--eps", "1", "--mu", "0",
        "--trials", "1", "--out", str(tmp_path),
    ]
    if protocol == "kv2":
        args += ["--sigma", "1", "--k", "256"]
    else:
        args += ["--sigma", "3", "--sigma-min", "2", "--sigma-max", "16", "--k1", "256"]
    args[args.index(flag) + 1] = value
    assert exit_code(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err and "Traceback" not in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.filterwarnings("error")
def test_true_sigma_whose_samples_overflow_exits_2_naming_it(tmp_path, capsys):
    # Box-Muller draws reach 8.65 standard deviations, and 8.66 * 1e308 is
    # beyond the largest double; 2e307 is not
    args = [
        "simulate", "--protocol", "uv2", "--n", "4096", "--eps", "1", "--mu", "0",
        "--sigma", "1e308", "--sigma-min", "2", "--sigma-max", "16", "--k1", "256",
        "--trials", "1", "--out", str(tmp_path),
    ]
    assert exit_code(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: true sigma 1e+308 is too large") and "Traceback" not in err
    assert not (tmp_path / "results.csv").exists()
    args[args.index("--sigma") + 1] = "2e307"
    assert exit_code(args) == 0


# sha256 of (results.csv, summary.csv), as written before the k2 override
# was deleted: `simulate` at n = 2^12 with 3 trials, and a two-cell kv2 sweep
GOLDEN_CSV = [
    ("simulate", "kv2", ["--n", "4096", "--trials", "3"], (
        "81f9387643252bbe8d6a8b0b024395486415677aaa88afe97b38255f6d9f800b",
        "9dcbc5566350ddaf21379d43ad3e0cdf5f4a256233d7578ca1ef359b58e1c1e0")),
    ("simulate", "kv1", ["--n", "4096", "--trials", "3"], (
        "be19eb65da25b59c8bfaf795f43ae5cb03f39983a668b95f00853758546f4306",
        "47068e6c4b2ea50f43994f32fb874be4af3b04b408a987b2174ce69ea2bda7a8")),
    ("simulate", "uv2", ["--n", "4096", "--trials", "3"], (
        "4f9e81ad947f45c3040555026df2ac3a90d503fc2a1f29da64b12068dd175de9",
        "bf7618d964cb107caf8f51623f51bdd2deb5db875b314eb0a6498b439d6a1e90")),
    ("simulate", "uv1", ["--n", "4096", "--trials", "3"], (
        "333ddf5d4b48f6a3f15f17b28d2dde72cd2f27c90299db416df498a4695645e4",
        "97a7cb6d9ee58dd45073530f66c5e0f467310aae3267c67c8fb1c6cb08a4f1a8")),
    ("sweep", "kv2", ["--n-grid", "4096,8192", "--trials", "2"], (
        "4f0f17592f8f7c351a035083f7dd4897d2e99085020db57491bb2b212e8cd2b8",
        "9ecb3589b3ee64fca094760348a148ca2330315dc94ee558609fa77babd6724d")),
]


@pytest.mark.parametrize("command,protocol,extra,digests", GOLDEN_CSV,
                         ids=[f"{command}-{protocol}" for command, protocol, *_ in GOLDEN_CSV])
def test_golden_csv_digests(tmp_path, command, protocol, extra, digests):
    sigmas = ["--sigma", "1"] if protocol.startswith("kv") else [
        "--sigma", "3", "--sigma-min", "2", "--sigma-max", "16"]
    args = [command, "--protocol", protocol, *extra, "--eps", "1", "--mu", "5", *sigmas,
            "--levels", "4", "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    got = tuple(hashlib.sha256(read(tmp_path / name)).hexdigest()
                for name in ("results.csv", "summary.csv"))
    assert got == digests


@pytest.mark.parametrize("command,protocol", [
    ("simulate", "kv2"), ("simulate", "uv1"), ("sweep", "kv2"),
])
def test_args_file_run_matches_typed_flags(tmp_path, capsys, command, protocol):
    sizes = ["--n-grid=4096,8192"] if command == "sweep" else ["--n=4096"]
    sigmas = ["--sigma=1"] if protocol.startswith("kv") else ["--sigma-min=2", "--sigma-max=16"]
    public = [f"--protocol={protocol}", *sizes, "--eps=1", "--beta=0.05", "--levels=4", *sigmas]
    private = ["--mu", "5", "--trials", "2", "--seed", "7"]
    if protocol.startswith("uv"):
        private += ["--sigma", "3"]
    path = args_file(tmp_path, *public)

    def run(out, config):
        extra = ["--transcript", str(out / "t.jsonl")] if command == "simulate" else []
        assert exit_code([command, *config, *private, "--out", str(out), *extra]) == 0
        return {file.name: file.read_bytes() for file in out.iterdir()}

    typed = run(tmp_path / "typed", [part for flag in public for part in flag.split("=", 1)])
    from_file = run(tmp_path / "file", [path])
    assert from_file == typed
    assert len(typed) == (3 if command == "simulate" else 2)
    if command == "simulate":
        capsys.readouterr()
        transcript = tmp_path / "file" / "t.jsonl"
        assert exit_code(["replay", path, "--transcript", str(transcript)]) == 0
        assert capsys.readouterr().out.startswith("replay ok")


class TestAudit:
    def test_default_budgets_pass(self, capsys):
        assert cli.main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        assert "rr1" in out and "one_round_uv_rr2" in out

    def test_faulty_randomizer_detected(self, monkeypatch, capsys):
        from ldpgauss import harness

        def always_truthful(eps):
            return 1.0

        monkeypatch.setattr(harness, "quad_keep_prob", always_truthful)
        assert cli.main(["audit", "--eps", "1"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_faulty_dispatch_detected(self, monkeypatch, capsys):
        # the audit reaches the kernels through the runners' own dispatch, so
        # a fault there fails it: here uv2's round two clamps one unit too wide
        import numpy as np

        from ldpgauss import protocols
        from ldpgauss.numerics import laplace_from_uniform

        def loose_clamp(eps, xs, lo, hi, u_noise):
            wide = np.clip(np.asarray(xs, dtype=np.float64), lo - 1.0, hi + 1.0)
            return wide + laplace_from_uniform(np.asarray(u_noise), (hi - lo) / eps)

        monkeypatch.setattr(protocols, "uv_rr2_values", loose_clamp)
        assert cli.main(["audit", "--eps", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "VIOLATION uv_rr2 eps=1.0 max_log_ratio=1.4000000000000004 bound=1.0" in lines

    def test_golden_stdout(self, capsys):
        assert cli.main(["audit", "--eps", "0.1,0.5,1,2,10"]) == 0
        assert capsys.readouterr().out == AUDIT_STDOUT

    def test_zero_eps_exits_2(self):
        assert cli.main(["audit", "--eps", "0"]) == 2

    @pytest.mark.parametrize("eps", ["inf", "nan", "1,-inf"])
    def test_non_finite_eps_exits_2(self, capsys, eps):
        assert cli.main(["audit", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite positive eps" in captured.err

    def test_large_eps_rounding_is_not_a_violation(self, capsys):
        # rr1's ratio at eps = 10 misses e^10 by a relative 3e-13 of rounding
        assert cli.main(["audit", "--eps", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(line.startswith("ok ") for line in lines)


class TestReplay:
    def run_with_transcript(self, tmp_path):
        transcript = tmp_path / "run.jsonl"
        args = simulate_args(tmp_path, trials=1) + ["--transcript", str(transcript)]
        assert cli.main(args) == 0
        return transcript

    def replay_args(self, tmp_path, transcript):
        return [
            "replay", "--protocol", "kv2", "--transcript", str(transcript),
            "--n", "4096", "--eps", "1", "--beta", "0.05", "--sigma", "1", "--k", "256",
        ]

    def test_fresh_run_replays_clean(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        assert cli.main(self.replay_args(tmp_path, transcript)) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_flipped_sign_detected(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        lines = transcript.read_text().splitlines()
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj.get("kind") == "sign":
                obj["value"] = -obj["value"]
                lines[i] = json.dumps(obj, separators=(",", ":"))
                break
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        assert cli.main(self.replay_args(tmp_path, mutated)) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_impossible_report_value_exits_2(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        lines = transcript.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["kind"] == "quad"
        lines[0] = json.dumps(dict(first, value=-1), separators=(",", ":"))
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        assert cli.main(self.replay_args(tmp_path, mutated)) == 2
        assert "malformed input" in capsys.readouterr().err

    def test_levels_with_k_exits_2(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        assert cli.main(self.replay_args(tmp_path, transcript) + ["--levels", "8"]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_zero_levels_exits_2(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        args = self.replay_args(tmp_path, transcript)
        del args[args.index("--k"):args.index("--k") + 2]
        assert cli.main(args + ["--levels", "0"]) == 2
        assert "levels must be" in capsys.readouterr().err

    def test_zero_beta_exits_2(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        args = self.replay_args(tmp_path, transcript)
        args[args.index("--beta") + 1] = "0"
        assert cli.main(args) == 2
        assert "beta must be" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--trials", "99"], ["--out", "made-by-replay"], ["--timing"],
        ["--sigma-min", "1", "--sigma-max", "4"],
    ])
    def test_option_replay_would_not_read_exits_2(self, tmp_path, capsys, extra):
        transcript = self.run_with_transcript(tmp_path)
        capsys.readouterr()
        if extra[0] == "--out":
            extra = ["--out", str(tmp_path / extra[1])]
        assert exit_code(self.replay_args(tmp_path, transcript) + extra) == 2
        assert "replay ok" not in capsys.readouterr().out
        assert not (tmp_path / "made-by-replay").exists()

    def test_sigma_bounds_message_matches_simulate(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        bounds = ["--sigma-min", "1", "--sigma-max", "4"]
        assert cli.main(simulate_args(tmp_path) + bounds) == 2
        simulate_err = capsys.readouterr().err
        assert cli.main(self.replay_args(tmp_path, transcript) + bounds) == 2
        assert capsys.readouterr().err == simulate_err == (
            "error: kv2 uses --sigma, not --sigma-min/--sigma-max\n")

    def test_mu_and_seed_still_accepted(self, tmp_path, capsys):
        # one set of configuration flags serves simulate and replay alike
        transcript = self.run_with_transcript(tmp_path)
        args = self.replay_args(tmp_path, transcript) + ["--mu", "10", "--seed", "7"]
        assert cli.main(args) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_transcript_without_final_newline_exits_2(self, tmp_path, capsys):
        transcript = self.run_with_transcript(tmp_path)
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(transcript.read_bytes()[:-1])
        assert cli.main(self.replay_args(tmp_path, cut)) == 2
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"\n", b"\r"),
        lambda data: data.replace(b"level:0", b"level:\xff", 1),  # not UTF-8
        lambda data: data.replace(b"level:0", "level:\u00e9".encode(), 1),
    ], ids=["crlf", "cr", "invalid-utf8", "non-ascii"])
    def test_bytes_the_writer_never_writes_exit_2(self, tmp_path, capsys, edit):
        # the writer writes ASCII and ends lines with LF only
        transcript = self.run_with_transcript(tmp_path)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(edit(transcript.read_bytes()))
        capsys.readouterr()
        assert cli.main(self.replay_args(tmp_path, copy)) == 2
        captured = capsys.readouterr()
        assert "malformed input" in captured.err and "replay ok" not in captured.out

    def test_truncated_transcript_exits_2(self, tmp_path):
        transcript = self.run_with_transcript(tmp_path)
        lines = transcript.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[: len(lines) // 3]) + "\n")
        assert cli.main(self.replay_args(tmp_path, truncated)) == 2
