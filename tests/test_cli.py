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


# the exact stdout of `ldpgauss audit --eps 0.1,0.5,1,2`
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
"""


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

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "protocol": "kv2", "n": 4096, "eps": 1.0, "beta": 0.05, "mu": 10.0,
            "sigma": 1.0, "k": 256, "trials": 2, "seed": 7,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main([
            "simulate", "--config", str(path), "--trials", "4", "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # the flag overrides the file's trials=2

    def test_config_file_key_naming_no_option_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"levles": 8}))
        assert cli.main(simulate_args(tmp_path) + ["--config", str(path)]) == 2
        assert "levles" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "eps", "1"),
        ("simulate", "n", "4096"),
        ("simulate", "n", 4096.0),
        ("simulate", "k", 256.5),
        ("sweep", "n_grid", "4096,8192"),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command, key, value):
        config = {
            "protocol": "kv2", "n": 4096, "eps": 1.0, "mu": 10.0, "sigma": 1.0,
            "k": 256, "trials": 1, "out": str(tmp_path),
        }
        if command == "sweep":
            config["n_grid"] = [4096, 8192]
        config[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"config file key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_config_grid_as_a_json_list(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_grid": [4096, 8192], "eps_grid": [0.5, 1]}))
        args = ["sweep", "--config", str(path), "--protocol", "kv2", "--mu", "10", "--sigma", "1",
                "--k", "256", "--trials", "1", "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + 4

    def test_zero_levels_exits_2(self, tmp_path, capsys):
        args = simulate_args(tmp_path)
        args[args.index("--k"):args.index("--k") + 2] = ["--levels", "0"]
        assert cli.main(args) == 2
        assert "levels must be" in capsys.readouterr().err

    def test_proof_constants_flag_is_gone(self, tmp_path, capsys):
        assert exit_code(simulate_args(tmp_path) + ["--proof-constants"]) == 2
        assert "--proof-constants" in capsys.readouterr().err

    def test_proof_constants_config_key_is_gone(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"proof_constants": True}))
        assert cli.main(simulate_args(tmp_path) + ["--config", str(path)]) == 2
        assert "proof_constants" in capsys.readouterr().err

    def test_size_the_protocol_would_ignore_exits_2(self, tmp_path, capsys):
        # kv2 has no refinement subgroups, so k2 would be dropped
        assert cli.main(simulate_args(tmp_path, k2=7)) == 2
        assert "would ignore k2" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

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
        ["--n-grid", "4096"], ["--n-grid", "4096,4096"], ["--n", "4096", "--eps-grid", "1,1"],
    ])
    def test_single_cell_slope_absent(self, tmp_path, capsys, grid):
        args = [
            "sweep", "--protocol", "kv2", *grid, "--eps", "1", "--mu", "10", "--sigma", "1",
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

    def test_golden_stdout(self, capsys):
        assert cli.main(["audit", "--eps", "0.1,0.5,1,2"]) == 0
        assert capsys.readouterr().out == AUDIT_STDOUT

    def test_zero_eps_exits_2(self):
        assert cli.main(["audit", "--eps", "0"]) == 2

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

    def test_truncated_transcript_exits_2(self, tmp_path):
        transcript = self.run_with_transcript(tmp_path)
        lines = transcript.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[: len(lines) // 3]) + "\n")
        assert cli.main(self.replay_args(tmp_path, truncated)) == 2
