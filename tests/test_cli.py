import csv
import json

import numpy as np
import pytest

from retainkv import cli, theory
from retainkv.cli import ConfigError, load_config, main
from retainkv.evaluate import SelectionRecorder, decode_sequence
from retainkv.gates import ModelShape, init_gate_params, save_gates
from retainkv.tasks import generate_dataset
from retainkv.theory import spectral_radius

SMALL_TASK = {
    "task": {"context_len": 32, "n_keys": 4, "n_values": 3, "n_queries": 2,
             "n_distractor_vocab": 8, "vocab": 40},
    "model": {"gate_hidden": 8},
    "train": {"steps": 8, "n_sequences": 8, "batch_size": 2},
    "eval": {"samples": 3, "budgets": [0.5], "policies": ["full", "recency"]},
    "survival": {"samples": 2, "horizons": [1, 2, 4, 8]},
}

SMALL_THEORY = {
    "theory": {"bound_instances": 50, "identity_instances": 50,
               "persistence_configs": 2, "persistence_trials": 1000,
               "n_max": 50, "var_fits": 2},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["version"] == 1
        assert cfg["train"]["lambda_cap"] == 1.0
        assert cfg["eviction"]["horizon"] == 2

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, {"nonsense": {}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"train": {"momentum": 0.9}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_version_rejected(self, tmp_path):
        path = write_config(tmp_path, {"version": 99})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_presets(self):
        assert load_config(None, "tying_off")["train"]["tied"] is False
        assert load_config(None, "gate_input_kv")["train"]["gate_input"] == "kv"
        assert load_config(None, "lookahead5")["eviction"]["horizon"] == 5

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"version": 5})
        code = main(["theory", "--config", path, "--seed", "1", "--out", str(tmp_path)])
        assert code == 2


class TestBadConfigValue:
    """Exit 2 with one `config error:` line naming the value, before any work."""

    CASES = {
        "negative_lambda": ("train", {"train": {"lambda_cap": -1}}, "train.lambda_cap"),
        "zero_steps": ("train", {"train": {"steps": 0}}, "train.steps"),
        "zero_batch": ("train", {"train": {"batch_size": 0}}, "train.batch_size"),
        "zero_samples": ("eval", {"eval": {"samples": 0}}, "eval.samples"),
        "negative_budget": ("eval", {"eval": {"budgets": [-0.5]}}, "eval.budgets"),
        "repeated_budget": ("eval", {"eval": {"budgets": [0.25, 0.25]}}, "eval.budgets"),
        "repeated_policy": ("eval", {"eval": {"policies": ["full", "full"]}}, "eval.policies"),
        "repeated_top_k": ("survival", {"survival": {"top_k": [2, 2]}}, "survival.top_k"),
        "string_context": ("train", {"task": {"context_len": "abc"}}, "task.context_len"),
        "task_registers_train": ("train", {"task": {"n_keys": 10, "vocab": 128}},
                                 "bad [task]: d_model 32 too small for task registers"),
        "task_registers_theory": ("theory",
                                  {"task": {"n_keys": 9, "n_values": 6, "vocab": 128}},
                                  "bad [task]: d_model 32 too small for task registers"),
        "few_persistence_trials": ("theory", {"theory": {"persistence_trials": 500}},
                                   "theory.persistence_trials must be an integer >= 1000"),
        "section_not_object": ("train", {"train": "x"}, "[train] must be a JSON object"),
        "bool_version": ("theory", {"version": True}, "version must be the integer 1, got True"),
        "float_version": ("train", {"version": 1.0}, "version must be the integer 1, got 1.0"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_two_with_one_line(self, tmp_path, capsys, case):
        command, payload, named = self.CASES[case]
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTheoryCommand:
    def test_report_written_and_clean(self, tmp_path):
        path = write_config(tmp_path, {**SMALL_THEORY, **SMALL_TASK})
        code = main(["theory", "--config", path, "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "theory_report.json").read_text())
        assert report["violations_total"] == 0
        assert report["dilution_bound"]["instances"] == 50
        assert report["var1"]["random_walk_flagged_unstable"] is True
        assert 0.6 < report["var1"]["median_fitted_radius"] < 0.9
        assert report["backbone_query_var"]["pca_dims"] >= 1
        curves = read_csv(tmp_path / "persistence.csv")
        assert {r["criterion"] for r in curves} == {"survival", "bound"}
        for row in curves:
            assert 0.0 <= float(row["fraction"]) <= 1.0

    def test_forced_unstable_reported_not_crashed(self, tmp_path, capsys):
        """The theory suite has no fault-injection key: `force_unstable` is an
        unknown config key, reported in one line."""
        payload = dict(SMALL_THEORY)
        payload["theory"] = dict(SMALL_THEORY["theory"], force_unstable=True)
        path = write_config(tmp_path, payload)
        code = main(["theory", "--config", path, "--seed", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:") \
            and "force_unstable" in err, err
        assert not (tmp_path / "theory_report.json").exists()


class TestBadOut:
    """An `--out` that cannot be made a directory exits 2 with one line."""

    @pytest.mark.parametrize("sub", ("", "sub"))
    def test_out_under_a_file_exits_two(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / sub if sub else blocker
        code = main(["theory", "--seed", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("output error: ") and err.count("\n") == 1, err
        assert str(out) in err and "Traceback" not in err
        assert blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["theory", "train", "eval", "survival"])
def test_negative_seed_exits_two_before_making_out(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--seed", "-1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("seed error: ") and err.count("\n") == 1, err
    assert "-1" in err and "Traceback" not in err
    assert not out.exists()


class TestAtomicWrite:
    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli.write_json(str(path), {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli.write_json(str(path), {"a": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    TABLES = {
        "trace": {"step": [0, 0], "layer": [0, 1], "head": [0, 0], "token_birth": [0, 0],
                  "score": [np.inf, 0.5], "action": ["retain", "evict"]},
        "loss": {"step": [0, 1], "quality": [1.0, 2.0], "cap": [0.0, 0.5],
                 "total": [1.0, 2.5]},
    }
    COLUMNS = {"trace": cli.TRACE_COLUMNS, "loss": cli.LOSS_COLUMNS}
    BAD = {
        "nan_score": ("trace", {"score": [np.nan, 0.5]}),
        "minus_inf_score": ("trace", {"score": [-np.inf, 0.5]}),
        "nan_quality": ("loss", {"quality": [1.0, np.nan]}),
        "inf_cap": ("loss", {"cap": [np.inf, 0.5]}),
        "missing_column": ("trace", {"action": None}),
        "extra_column": ("loss", {"kl": [0.0, 0.0]}),
        "ragged_columns": ("loss", {"total": [1.0]}),
    }

    def test_infinite_score_is_written(self, tmp_path):
        """Under the infinite horizon a beta of 1.0 scores +inf."""
        path = tmp_path / "eviction_trace.csv"
        cli.write_csv(str(path), self.TABLES["trace"], cli.TRACE_COLUMNS, "trace")
        assert path.read_text().splitlines() == [
            "step,layer,head,token_birth,score,action", "0,0,0,0,inf,retain",
            "0,1,0,0,0.5,evict"]

    @pytest.mark.parametrize("case", BAD)
    def test_bad_table_leaves_target_and_no_temp_file(self, tmp_path, case):
        name, change = self.BAD[case]
        path = tmp_path / f"{name}.csv"
        cli.write_csv(str(path), self.TABLES[name], self.COLUMNS[name], name)
        before = path.read_bytes()
        table = {k: v for k, v in {**self.TABLES[name], **change}.items() if v is not None}
        with pytest.raises(AssertionError):
            cli.write_csv(str(path), table, self.COLUMNS[name], name)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def var1_paths_per_fit(rng, fits, radius):
    """`theory._var1_paths` one fit and one step at a time."""
    paths = []
    for _ in range(fits):
        m, steps = 4, 1500
        a = rng.normal(size=(m, m))
        a *= radius / spectral_radius(a)
        b = 0.1 * rng.normal(size=m)
        noise = 0.1 * rng.normal(size=(steps, m))
        states = np.zeros((steps + 1, m))
        for t in range(steps):
            states[t + 1] = a @ states[t] + b + noise[t]
        paths.append(states)
    return np.stack(paths)


@pytest.mark.parametrize("fits", (1, 10))
def test_lockstep_var1_paths_match_per_fit_loop(fits):
    rng_lockstep, rng_loop = np.random.default_rng(fits), np.random.default_rng(fits)
    got = theory._var1_paths(rng_lockstep, fits, 0.76)
    assert np.array_equal(got, var1_paths_per_fit(rng_loop, fits, 0.76))
    assert rng_lockstep.bit_generator.state == rng_loop.bit_generator.state


class TestTrainEvalSurvival:
    def test_train_then_eval_then_survival(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TASK)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        ckpt = out / "gates.ckpt"
        assert ckpt.exists()
        loss_rows = read_csv(out / "loss.csv")
        assert len(loss_rows) == 8
        assert set(loss_rows[0]) == {"step", "quality", "cap", "total"}

        payload = dict(SMALL_TASK)
        payload["eval"] = dict(SMALL_TASK["eval"],
                               policies=["full", "global", "recency"], trace=True)
        cfg2 = write_config(tmp_path, payload, "eval.json")
        assert main(["eval", "--config", cfg2, "--seed", "3", "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 0
        rows = read_csv(out / "eval.csv")
        assert {r["policy"] for r in rows} == {"full", "global", "recency"}
        for r in rows:
            assert 0.0 <= float(r["accuracy"]) <= 1.0
        assert (out / "eviction_trace.csv").exists()

        assert main(["survival", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        srows = read_csv(out / "survival.csv")
        criteria = {r["criterion"] for r in srows}
        assert "top1" in criteria and "mass0.99" in criteria
        pooled = [r for r in srows if r["criterion"] == "top1" and r["layer"] == "-1"]
        fracs = [float(r["fraction"]) for r in sorted(pooled, key=lambda r: int(r["horizon"]))]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))

    def test_survival_is_the_mean_of_per_sample_curves(self, tmp_path):
        """Every token of every sample is one record, so the curves of two
        samples are the mean of their own. Pooling the samples by position
        would count a position selected if either sample selected it."""
        path = write_config(tmp_path, SMALL_TASK)
        out = tmp_path / "run"
        assert main(["survival", "--config", path, "--seed", "5", "--out", str(out)]) == 0
        got = {(r["criterion"], int(r["layer"]), int(r["head"]), int(r["horizon"])):
               float(r["fraction"]) for r in read_csv(out / "survival.csv")}

        cfg = load_config(path)
        scfg = cfg["survival"]
        spec, bb, (_, _, _, s_eval) = cli._prepare(cfg, 5)
        samples = generate_dataset(spec, scfg["samples"], np.random.default_rng(s_eval))
        assert len(samples) == 2
        curves = {}  # (criterion, layer, head) -> one curve per sample
        for sample in samples:
            rec = SelectionRecorder(top_k=scfg["top_k"], tau=scfg["tau"])
            decode_sequence(bb, None, sample, "full", 1.0, recorder=rec)
            for l, h, criterion in rec.last:
                reach = rec.reach(criterion, l, h, spec.seq_len)
                curves.setdefault((criterion, l, h), []).append(
                    [np.mean(reach >= hz) for hz in scfg["horizons"]])
        heads, n_criteria = bb.shape.layers * bb.shape.heads, len(rec.criteria())
        assert len(curves) == heads * n_criteria
        pooled = {}
        for (criterion, l, h), per_sample in curves.items():
            want = np.mean(per_sample, axis=0)
            pooled.setdefault(criterion, []).append(want)
            for hz, w in zip(scfg["horizons"], want):
                assert got[(criterion, l, h, hz)] == pytest.approx(w, abs=1e-12)
        for criterion, per_head in pooled.items():
            for hz, w in zip(scfg["horizons"], np.mean(per_head, axis=0)):
                assert got[(criterion, -1, -1, hz)] == pytest.approx(w, abs=1e-12)
        assert len(got) == n_criteria * (heads + 1) * len(scfg["horizons"])

    def test_trace_without_scored_rows_is_header_only(self, tmp_path):
        """`full` and `recency` score nothing, but a trace run still writes the file."""
        payload = dict(SMALL_TASK, eval=dict(SMALL_TASK["eval"], trace=True))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["eval", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        text = (out / "eviction_trace.csv").read_text()
        assert text.splitlines() == ["step,layer,head,token_birth,score,action"]

    def test_gated_eval_without_checkpoint_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TASK)
        payload = dict(SMALL_TASK)
        payload["eval"] = dict(SMALL_TASK["eval"], policies=["global"])
        cfg2 = write_config(tmp_path, payload, "bad.json")
        code = main(["eval", "--config", cfg2, "--seed", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_outputs_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TASK)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
            assert main(["survival", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
            blobs.append((out / "gates.ckpt").read_bytes()
                         + (out / "loss.csv").read_bytes()
                         + (out / "survival.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_deterministic_apart_from_timing(self, tmp_path):
        """A traced run with a checkpoint: the trace, scores included, is
        byte-identical between runs."""
        payload = dict(SMALL_TASK, eval=dict(SMALL_TASK["eval"], trace=True,
                                             policies=["full", "global", "per_head"]))
        cfg = write_config(tmp_path, payload)
        ckpt = _checkpoint(tmp_path / "gates.ckpt")
        rowsets, traces = [], []
        for name in ("c", "d"):
            out = tmp_path / name
            assert main(["eval", "--config", cfg, "--seed", "4", "--out", str(out),
                         "--checkpoint", str(ckpt)]) == 0
            rows = read_csv(out / "eval.csv")
            rowsets.append([{k: v for k, v in row.items() if k != "seconds"}
                            for row in rows])
            traces.append((out / "eviction_trace.csv").read_bytes())
        assert rowsets[0] == rowsets[1]
        assert traces[0] == traces[1]
        assert traces[0].count(b"\n") > 1   # scored rows, not the header alone

    def test_saturated_gate_under_infinite_horizon_traces_inf(self, tmp_path):
        """A readout bias of 40 gives betas of exactly 1.0, which score +inf
        under the infinite horizon; the trace writes them as `inf`."""
        def saturate(params):
            params.bg[...] = 40.0

        ckpt = _checkpoint(tmp_path / "gates.ckpt", edit=saturate)
        payload = dict(SMALL_TASK, eviction={"horizon": "infinite"},
                       eval={"trace": True, "policies": ["global"], "budgets": [0.25],
                             "samples": 2})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["eval", "--config", cfg, "--seed", "3", "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 0
        scores = [row["score"] for row in read_csv(out / "eviction_trace.csv")]
        assert "inf" in scores
        assert all(np.isfinite(float(s)) or s == "inf" for s in scores)


def _checkpoint(path, layers=2, heads=2, d_in=32, gate_input="embedding", edit=None):
    """A gate checkpoint for SMALL_TASK's backbone (2 layers, 2 heads, d_model 32);
    `edit` may change the parameters in place before they are saved."""
    shape = ModelShape(layers=layers, heads=heads, head_dim=16, gate_hidden=8,
                       seq_len=37, vocab=40)
    params = init_gate_params(shape, d_in, np.random.default_rng(0), gate_input=gate_input)
    if edit is not None:
        edit(params)
    save_gates(path, params)
    return path


def _bad_checkpoint(tmp_path, case):
    path = tmp_path / "gates.ckpt"
    if case == "missing":
        return tmp_path / "no_such.ckpt"
    if case == "corrupt":
        path.write_bytes(b"not a checkpoint at all")
        return path
    if case == "bad_header":
        blob = _checkpoint(path).read_bytes()
        path.write_bytes(blob[:12] + b"\xff" + blob[13:])
        return path
    if case == "truncated":
        blob = _checkpoint(path).read_bytes()
        path.write_bytes(blob[:-9])
        return path
    if case == "trailing":
        blob = _checkpoint(path).read_bytes()
        path.write_bytes(blob + b"\x00")
        return path
    if case == "layers":
        return _checkpoint(path, layers=3)
    if case == "heads":
        return _checkpoint(path, heads=4)
    if case == "d_in":
        return _checkpoint(path, d_in=16, gate_input="kv")
    if case in ("nan_weight", "inf_weight"):
        def poison(params):
            params.flat[0] = np.nan if case == "nan_weight" else np.inf

        return _checkpoint(path, edit=poison)
    if case == "activation":
        blob = _checkpoint(path).read_bytes()
        path.write_bytes(blob.replace(b'"activation": "tanh"', b'"activation": "relu"'))
        return path
    if case == "seed":
        blob = _checkpoint(path).read_bytes()
        # same length, so the header length field still holds
        path.write_bytes(blob.replace(b'"seed": null', b'"seed": "ab"'))
        return path
    if case == "gate_input":
        blob = _checkpoint(path).read_bytes()
        path.write_bytes(blob.replace(b'"gate_input": "embedding"', b'"gate_input": "bogusmode"'))
        return path
    raise AssertionError(case)


class TestBadCheckpoint:
    """Exit 2 with one line on stderr, checked before any decoding."""

    CASES = ("missing", "corrupt", "bad_header", "truncated", "trailing",
             "layers", "heads", "d_in", "activation", "gate_input", "seed", "nan_weight",
             "inf_weight")

    @pytest.mark.parametrize("command", ["eval"])
    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_two_with_one_line(self, tmp_path, capsys, monkeypatch, command, case):
        def no_decoding(*args, **kwargs):
            raise AssertionError("decoding started")

        monkeypatch.setattr(cli, "evaluate_policies", no_decoding)
        cfg = write_config(tmp_path, SMALL_TASK)
        ckpt = _bad_checkpoint(tmp_path, case)
        code = main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "out"),
                     "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "checkpoint" in err, err
        assert "Traceback" not in err

    def test_good_checkpoint_accepted(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_TASK)
        ckpt = _checkpoint(tmp_path / "gates.ckpt")
        assert main(["eval", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a"),
                     "--checkpoint", str(ckpt)]) == 0
        kv = _checkpoint(tmp_path / "kv.ckpt", d_in=32, gate_input="kv")
        scored = write_config(tmp_path, dict(SMALL_TASK, eval=dict(SMALL_TASK["eval"],
                                                                   policies=["global"])),
                              "global.json")
        assert main(["eval", "--config", scored, "--seed", "1", "--out", str(tmp_path / "b"),
                     "--checkpoint", str(kv)]) == 0

    def test_survival_takes_no_checkpoint(self, tmp_path, capsys):
        """`survival` decodes the full cache, which reads no gate score."""
        cfg = write_config(tmp_path, SMALL_TASK)
        ckpt = _checkpoint(tmp_path / "gates.ckpt")
        with pytest.raises(SystemExit) as exc:
            main(["survival", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a"),
                  "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
