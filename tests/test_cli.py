"""CLI wiring: flags, exit codes, determinism, file formats."""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import dataset
from geomatch.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen-data once for all CLI tests; tiny clouds for speed."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["gen-data", "--out", str(root / "data"), "--seed", "5",
                 "--objects", "sphere_small", "--s-o", "48", "--s-g", "48"])
    assert code == 0
    return root


class TestGenData:
    def test_outputs_exist(self, pipeline_dir):
        data = pipeline_dir / "data"
        assert (data / "manifest.json").exists()
        assert (data / "records.jsonl").exists()
        assert (data / "objects" / "sphere_small.csv").exists()
        assert (data / "grippers" / "pincer.json").exists()
        assert (data / "grippers" / "claw_cloud.csv").exists()

    def test_idempotent_rerun(self, pipeline_dir, tmp_path):
        main(["gen-data", "--out", str(tmp_path / "a"), "--seed", "5",
              "--objects", "sphere_small", "--s-o", "48", "--s-g", "48"])
        main(["gen-data", "--out", str(tmp_path / "b"), "--seed", "5",
              "--objects", "sphere_small", "--s-o", "48", "--s-g", "48"])
        for rel in ("manifest.json", "records.jsonl",
                    "objects/sphere_small.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("value", [-3, 0, 5])
    @pytest.mark.parametrize("flag", ["--s-o", "--s-g"])
    def test_point_count_flag_range_checked(self, tmp_path, capsys, flag, value):
        # the flags obey the config's [16, 65536] range, checked before any write
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--objects", "sphere_small",
                     flag, str(value)]) == 2
        assert "outside [16, 65536]" in capsys.readouterr().err
        assert not out.exists()


class TestMaps:
    def test_writes_map_files(self, pipeline_dir):
        out = pipeline_dir / "maps"
        code = main(["maps", "--manifest", str(pipeline_dir / "data"),
                     "--out", str(out)])
        assert code == 0
        files = sorted(os.listdir(out))
        assert len(files) == 8      # 1 object x 2 grippers x 4 grasps
        doc = json.loads((out / files[0]).read_text())
        assert doc["m"] == 20
        assert doc["threshold"] == 0.04
        assert len(doc["cg"]) == 6


class TestTrainInferIkEval:
    def test_full_chain(self, pipeline_dir):
        data = str(pipeline_dir / "data")
        cfg = pipeline_dir / "config.json"
        cfg.write_text(json.dumps({"epochs": 2, "m": 8}))
        weights = pipeline_dir / "weights"
        assert main(["train", "--manifest", data, "--config", str(cfg),
                     "--out", str(weights)]) == 0
        assert (weights / "manifest.json").exists()
        assert (weights / "weights.bin").exists()
        assert (weights / "loss.csv").exists()

        proposals = pipeline_dir / "proposals.jsonl"
        assert main(["infer", "--weights", str(weights), "--manifest", data,
                     "--split", "train", "--ranks", "0,5",
                     "--out", str(proposals), "--config", str(cfg)]) == 0
        lines = [json.loads(l) for l in proposals.read_text().splitlines()]
        assert len(lines) == 4      # 1 train object x 2 ee x 2 ranks
        assert all(len(l["contacts"]) == 6 for l in lines)

        ik_out = pipeline_dir / "ik.jsonl"
        assert main(["ik", "--proposals", str(proposals), "--manifest", data,
                     "--out", str(ik_out), "--config", str(cfg)]) == 0
        reports = [json.loads(l) for l in ik_out.read_text().splitlines()]
        assert len(reports) == 4
        for rep in reports:
            assert rep["status"] in ("Converged", "MaxIterations", "SmallStep")
            assert len(rep["per_keypoint_mm"]) == 6
            assert set(rep["pose"]) == {"t", "r6", "theta"}

        eval_dir = pipeline_dir / "eval"
        assert main(["eval", "--ik", str(ik_out), "--manifest", data,
                     "--out", str(eval_dir), "--config", str(cfg)]) == 0
        csv_text = (eval_dir / "evaluation.csv").read_text()
        assert csv_text.startswith("object,ee,rank,success,active_contacts,"
                                   "mean_contact_error_mm,resisted_px")
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert "per_ee" in summary and "overall" in summary
        for entry in summary["per_ee"].values():
            assert "success_pct" in entry and "diversity_rad" in entry


class TestAugment:
    def test_noise_bound(self, pipeline_dir, tmp_path):
        from geomatch.geometry import load_cloud
        src = pipeline_dir / "data" / "objects" / "sphere_small.csv"
        out = tmp_path / "noisy.csv"
        assert main(["augment", "--cloud", str(src), "--noise", "0.001",
                     "--out", str(out), "--seed", "3"]) == 0
        a = load_cloud(src)
        b = load_cloud(out)
        assert np.abs(b.points - a.points).max() <= 0.001 + 1e-15

    def test_crop_table(self, pipeline_dir, tmp_path):
        from geomatch.geometry import load_cloud
        src = pipeline_dir / "data" / "objects" / "sphere_small.csv"
        out = tmp_path / "cropped.csv"
        assert main(["augment", "--cloud", str(src), "--crop-table",
                     "--out", str(out)]) == 0
        a = load_cloud(src)
        b = load_cloud(out)
        z = a.points[:, 2]
        z_thres = (z.max() - z.min()) / 6.0
        assert len(b) == int((z >= z_thres).sum())

    def test_requires_a_mode(self, pipeline_dir, tmp_path):
        src = pipeline_dir / "data" / "objects" / "sphere_small.csv"
        assert main(["augment", "--cloud", str(src),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestPlot:
    def test_svg_written(self, pipeline_dir, tmp_path):
        loss = tmp_path / "loss.csv"
        loss.write_text("epoch,loss_total,loss_f,loss_m\n"
                        "1,10.0,6.0,4.0\n2,5.0,3.0,2.0\n")
        out = tmp_path / "loss.svg"
        assert main(["plot", "--loss", str(loss), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])          # missing required flags
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_data_error(self, tmp_path):
        assert main(["maps", "--manifest", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_config_key(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"learning_rate": 1}')
        assert main(["maps", "--manifest", str(pipeline_dir / "data"),
                     "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2

    def test_directory_given_as_file(self, tmp_path, capsys):
        assert main(["augment", "--cloud", str(tmp_path), "--noise", "0.001",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_closure_error_exits_3(self, tmp_path, monkeypatch):
        grasps = dataset._pincer_grasps

        def one_tip_off(params, kind, shape):
            out = []
            for pose, contacts in grasps(params, kind, shape):
                contacts = np.array(contacts, dtype=np.float64)
                contacts[0, 0] += 1e-3
                out.append((pose, contacts))
            return out

        monkeypatch.setattr(dataset, "_pincer_grasps", one_tip_off)
        assert main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "5",
                     "--objects", "sphere_small", "--s-o", "48",
                     "--s-g", "48"]) == 3

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "geomatch" in capsys.readouterr().out


class TestWeightFileFaults:
    """infer must refuse weight files that do not fill every parameter."""

    @pytest.fixture()
    def weights(self, tmp_path):
        from geomatch.model import GeoMatchModel, ModelConfig, save_model
        config = ModelConfig(gcn_hidden=(6,), gcn_out=8, proj_dim=4,
                             ar_hidden=(6,))
        save_model(GeoMatchModel(config, seed=1), tmp_path / "w")
        return tmp_path / "w"

    @staticmethod
    def infer(pipeline_dir, weights):
        return main(["infer", "--weights", str(weights),
                     "--manifest", str(pipeline_dir / "data"),
                     "--split", "train", "--ranks", "0",
                     "--out", str(weights / "proposals.jsonl")])

    def test_intact_weights_load(self, pipeline_dir, weights):
        assert self.infer(pipeline_dir, weights) == 0

    def test_manifest_missing_entries(self, pipeline_dir, weights, capsys):
        path = weights / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(manifest[:-2]))
        assert self.infer(pipeline_dir, weights) == 2
        assert "missing" in capsys.readouterr().err

    def test_truncated_weights(self, pipeline_dir, weights, capsys):
        path = weights / "weights.bin"
        path.write_bytes(path.read_bytes()[:-12])
        assert self.infer(pipeline_dir, weights) == 2
        assert "bytes" in capsys.readouterr().err


class TestSeedEnvOverride:
    def test_env_seed_changes_output(self, tmp_path, monkeypatch):
        from geomatch.cli import load_config
        monkeypatch.setenv("GEOMATCH_SEED", "777")
        assert load_config(None).seed == 777
        monkeypatch.delenv("GEOMATCH_SEED")
        assert load_config(None).seed == 0

    def test_flag_overrides_env(self, monkeypatch):
        from geomatch.cli import load_config
        monkeypatch.setenv("GEOMATCH_SEED", "777")
        assert load_config(None, seed_override=5).seed == 5


class TestDeterminism:
    def test_train_rerun_identical_loss_log(self, pipeline_dir, tmp_path):
        data = str(pipeline_dir / "data")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "m": 8, "seed": 11}))
        for out in ("w1", "w2"):
            assert main(["train", "--manifest", data, "--config", str(cfg),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "w1" / "loss.csv").read_bytes() == \
            (tmp_path / "w2" / "loss.csv").read_bytes()
        assert (tmp_path / "w1" / "weights.bin").read_bytes() == \
            (tmp_path / "w2" / "weights.bin").read_bytes()


# ---------------------------------------------------------------------------
# corrupt artifacts: every stage input, damaged on a copy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifacts(pipeline_dir):
    """One file of every kind a stage reads, made once from the toy data."""
    from geomatch.geometry import load_cloud
    from geomatch.model import GeoMatchModel, ModelConfig, save_model
    root = pipeline_dir / "artifacts"
    shutil.copytree(pipeline_dir / "data", root / "data")
    config = ModelConfig(gcn_hidden=(6,), gcn_out=8, proj_dim=4, ar_hidden=(6,))
    save_model(GeoMatchModel(config, seed=1), root / "weights")
    assert main(["infer", "--weights", str(root / "weights"),
                 "--manifest", str(root / "data"), "--split", "train",
                 "--ranks", "0,5", "--out", str(root / "proposals.jsonl")]) == 0
    assert main(["ik", "--proposals", str(root / "proposals.jsonl"),
                 "--manifest", str(root / "data"), "--max-iter", "3",
                 "--out", str(root / "ik.jsonl")]) == 0
    (root / "config.json").write_text(json.dumps({"epochs": 2, "m": 8}))
    (root / "loss.csv").write_text("epoch,loss_total,loss_f,loss_m\n"
                                   "1,10.0,6.0,4.0\n2,5.0,3.0,2.0\n")
    cloud = load_cloud(root / "data" / "objects" / "sphere_small.csv")
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              *(f"property float {n}" for n in ("x", "y", "z", "nx", "ny", "nz")),
              "end_header"]
    rows = [" ".join(repr(float(v)) for v in (*p, *n))
            for p, n in zip(cloud.points, cloud.normals)]
    (root / "cloud.ply").write_text("\n".join(header + rows) + "\n")
    return root


def stage_reading(rel, d):
    """The command line of a stage that reads artifact `rel` under `d`."""
    data = str(d / "data")
    if rel in ("config.json", "cloud.ply"):
        return ["augment", "--cloud", str(d / "cloud.ply"), "--crop-table",
                "--config", str(d / "config.json"), "--out", str(d / "out.csv")]
    if rel.startswith("data/"):
        return ["maps", "--manifest", data, "--out", str(d / "maps")]
    if rel.startswith("weights/"):
        return ["infer", "--weights", str(d / "weights"), "--manifest", data,
                "--split", "train", "--ranks", "0", "--out", str(d / "p.jsonl")]
    if rel == "proposals.jsonl":
        return ["ik", "--proposals", str(d / rel), "--manifest", data,
                "--max-iter", "3", "--out", str(d / "ik2.jsonl")]
    if rel == "ik.jsonl":
        return ["eval", "--ik", str(d / rel), "--manifest", data,
                "--out", str(d / "eval")]
    assert rel == "loss.csv"
    return ["plot", "--loss", str(d / rel), "--out", str(d / "loss.svg")]


def edit_json(change):
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return apply


def edit_first_row(change):
    def apply(text):
        first, rest = text.split("\n", 1)
        return edit_json(change)(first) + "\n" + rest
    return apply


def short_first_vertex(text):
    head, body = text.split("end_header\n")
    first, rest = body.split("\n", 1)
    return f"{head}end_header\n{' '.join(first.split()[:5])}\n{rest}"


def cut_last_line(text):
    return text[:-30]


FAULTS = [
    ("config-not-json", "config.json", lambda t: '{"epochs": 2'),
    ("config-ranks-scalar", "config.json", lambda t: '{"ranks": 5}'),
    ("config-epochs-string", "config.json", lambda t: '{"epochs": "x"}'),
    ("config-bool-string", "config.json", lambda t: '{"squared_threshold": "false"}'),
    ("config-seed-float", "config.json", lambda t: '{"seed": 1.7}'),
    ("config-epochs-bool", "config.json", lambda t: '{"epochs": true}'),
    ("config-removed-acceleration", "config.json", lambda t: '{"acceleration": 0}'),
    ("manifest-not-json", "data/manifest.json", lambda t: t[:-10]),
    ("chain-not-json", "data/grippers/pincer.json", lambda t: t[:len(t) // 2]),
    ("chain-keypoint-no-offset", "data/grippers/pincer.json",
     edit_json(lambda d: d["keypoints"][0].pop("offset"))),
    ("ply-short-row", "cloud.ply", short_first_vertex),
    ("weights-no-model-config", "weights/model_config.json", None),
    ("model-config-no-gcn-out", "weights/model_config.json",
     edit_json(lambda d: d.pop("gcn_out"))),
    ("model-config-negative-width", "weights/model_config.json",
     edit_json(lambda d: d.update(gcn_out=-1))),
    ("proposals-cut", "proposals.jsonl", cut_last_line),
    ("proposals-no-contacts", "proposals.jsonl",
     edit_first_row(lambda d: d.pop("contacts"))),
    ("proposals-unknown-gripper", "proposals.jsonl",
     edit_first_row(lambda d: d.update(ee="robotiq"))),
    ("proposals-five-contacts", "proposals.jsonl",
     edit_first_row(lambda d: d["contacts"].pop())),
    ("ik-cut", "ik.jsonl", cut_last_line),
    ("ik-no-pose", "ik.jsonl", edit_first_row(lambda d: d.pop("pose"))),
    ("ik-unknown-object", "ik.jsonl",
     edit_first_row(lambda d: d.update(object="teapot"))),
    ("ik-five-contacts", "ik.jsonl", edit_first_row(lambda d: d["contacts"].pop())),
    ("loss-no-loss-f", "loss.csv",
     lambda t: "epoch,loss_total,loss_m\n1,10.0,4.0\n"),
    ("records-cut", "data/records.jsonl", cut_last_line),
]


@pytest.mark.parametrize("rel, damage", [f[1:] for f in FAULTS],
                         ids=[f[0] for f in FAULTS])
def test_corrupt_artifact_exits_2(artifacts, tmp_path, capsys, rel, damage):
    d = tmp_path / "a"
    shutil.copytree(artifacts, d)
    path = d / rel
    if damage is None:
        path.unlink()
    else:
        path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert main(stage_reading(rel, d)) == 2
    assert str(path) in capsys.readouterr().err


TEXT_ARTIFACTS = ("config.json", "cloud.ply", "data/manifest.json",
                  "data/records.jsonl", "data/grippers/claw.json",
                  "data/grippers/claw_cloud.csv", "data/objects/sphere_small.csv",
                  "weights/manifest.json", "weights/model_config.json",
                  "proposals.jsonl", "ik.jsonl", "loss.csv")


@pytest.mark.parametrize("rel", TEXT_ARTIFACTS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_truncated_artifact_never_raises(artifacts, rel, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "a"
        shutil.copytree(artifacts, d)
        blob = (d / rel).read_bytes()
        (d / rel).write_bytes(blob[:data.draw(st.integers(0, len(blob)))])
        assert main(stage_reading(rel, d)) in (0, 2, 3)


def test_only_encoding_stages_build_graphs(artifacts, tmp_path, monkeypatch):
    """maps, ik and eval never encode, so they build no k-NN graph; infer
    builds one per object and one per gripper."""
    from geomatch import geometry
    built = []
    real = geometry.build_knn_graph
    monkeypatch.setattr(geometry, "build_knn_graph",
                        lambda *a, **kw: built.append(1) or real(*a, **kw))
    data, d = str(artifacts / "data"), artifacts
    assert main(["maps", "--manifest", data, "--out", str(tmp_path / "maps")]) == 0
    assert main(["ik", "--proposals", str(d / "proposals.jsonl"), "--manifest",
                 data, "--max-iter", "3", "--out", str(tmp_path / "ik.jsonl")]) == 0
    assert main(["eval", "--ik", str(d / "ik.jsonl"), "--manifest", data,
                 "--out", str(tmp_path / "eval")]) == 0
    assert built == []
    assert main(["infer", "--weights", str(d / "weights"), "--manifest", data,
                 "--split", "train", "--ranks", "0",
                 "--out", str(tmp_path / "p.jsonl")]) == 0
    assert len(built) == 3          # 1 train object + 2 grippers


# ---------------------------------------------------------------------------
# flag and environment values: a clean exit code, never a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_env_seed_must_be_an_integer(tmp_path, monkeypatch, capsys, value):
    # the rule of a config seed: a JSON integer, else exit 2
    monkeypatch.setenv("GEOMATCH_SEED", value)
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--objects", "sphere_small",
                 "--s-o", "16", "--s-g", "16"]) == 2
    assert "GEOMATCH_SEED" in capsys.readouterr().err
    assert not out.exists()


def usage_error(argv, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("ranks", ["0,x", "1.5", "0,,5"])
def test_ranks_must_be_integers(artifacts, tmp_path, capsys, ranks):
    out = tmp_path / "p.jsonl"
    usage_error(["infer", "--weights", str(artifacts / "weights"), "--manifest",
                 str(artifacts / "data"), "--split", "train", "--ranks", ranks,
                 "--out", str(out)], capsys, "--ranks")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_max_iter_at_least_one(artifacts, tmp_path, capsys, value):
    # --max-iter 0 used to write every start pose as a solved row
    out = tmp_path / "ik.jsonl"
    usage_error(["ik", "--proposals", str(artifacts / "proposals.jsonl"),
                 "--manifest", str(artifacts / "data"), "--max-iter", value,
                 "--out", str(out)], capsys, "--max-iter")
    assert not out.exists()
