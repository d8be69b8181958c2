import json
import shutil
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dexretarget import dataio
from dexretarget.cli import main


def write_urdf(dirpath: Path) -> Path:
    text = resources.files("dexretarget.assets").joinpath(
        "four_finger_16dof.urdf").read_text()
    path = dirpath / "hand.urdf"
    path.write_text(text)
    return path


def write_config(dirpath: Path, **overrides) -> Path:
    doc = {
        "urdf": "hand.urdf",
        "hand_trajectory": "hand_trajectory.json",
        "observations_dir": "observations",
        "output_dir": "out",
        "object_cloud_true": "object_true.ply",
        "object_cloud_pred": "object_pred.ply",
        "taxonomy": "medium-wrap",
        "finger_mapping": {"thumb": "thumb_tip", "index": "index_tip",
                           "middle": "middle_tip", "ring": "ring_tip"},
        "proximal_links": {"thumb": "thumb_medial", "index": "index_medial",
                           "middle": "middle_medial", "ring": "ring_medial"},
        "seed": 7,
    }
    doc.update(overrides)
    path = dirpath / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def set_json(frame=None, **values):
    """A text edit that sets keys of a JSON document, or of one of its frames."""
    def edit(text):
        doc = json.loads(text)
        (doc if frame is None else doc["frames"][frame]).update(values)
        return json.dumps(doc)
    return edit


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A small synthetic demonstration shared across CLI tests."""
    root = tmp_path_factory.mktemp("clifix")
    code = main(["synth", "--out-dir", str(root), "--seed", "7", "--frames", "3",
                 "--noise", "0.001", "--depth-scale", "0.8"])
    assert code == 0
    write_urdf(root)
    write_config(root)
    return root


class TestCmdSynth:
    def test_deterministic_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(["synth", "--out-dir", str(out), "--seed", "5",
                         "--frames", "2"])
            assert code == 0
        for rel in ("hand_trajectory.json", "observations/frame_0001.ply",
                    "observations/frame_0001.pfm", "observations/frame_0000.pgm",
                    "object_true.ply"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_zero_noise_points_on_surface(self, tmp_path):
        out = tmp_path / "clean"
        assert main(["synth", "--out-dir", str(out), "--seed", "3",
                     "--frames", "1", "--noise", "0"]) == 0
        from dexretarget.synthetic import SynthConfig, synth_hand_trajectory
        fix = synth_hand_trajectory(SynthConfig(n_frames=1, noise_sigma=0.0, seed=3))
        cloud = dataio.read_ply(out / "observations" / "frame_0000.ply")
        np.testing.assert_allclose(cloud.points, fix.clouds[0].points, atol=1e-7)

    def test_zero_frames_is_input_error(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path), "--frames", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR synth:")


class TestCmdPipeline:
    def test_end_to_end_success(self, fixture_dir):
        code = main(["pipeline", "--config", str(fixture_dir / "config.json")])
        assert code == 0
        traj_path = fixture_dir / "out" / "robot_trajectory.json"
        assert traj_path.is_file()
        assert (fixture_dir / "out" / "report.txt").is_file()
        from dexretarget.robot_model import parse_urdf
        model = parse_urdf((fixture_dir / "hand.urdf").read_text())
        traj = dataio.read_robot_trajectory(traj_path, model)
        lo, hi = model.limit_arrays()
        for frame in traj.frames:
            assert np.all(frame.q >= lo - 1e-9) and np.all(frame.q <= hi + 1e-9)

    def test_byte_identical_rerun(self, fixture_dir):
        traj_path = fixture_dir / "out" / "robot_trajectory.json"
        assert main(["pipeline", "--config", str(fixture_dir / "config.json")]) == 0
        first = traj_path.read_bytes()
        assert main(["pipeline", "--config", str(fixture_dir / "config.json")]) == 0
        assert traj_path.read_bytes() == first

    def test_verbose_does_not_change_output(self, fixture_dir):
        traj_path = fixture_dir / "out" / "robot_trajectory.json"
        assert main(["pipeline", "--config", str(fixture_dir / "config.json")]) == 0
        plain = traj_path.read_bytes()
        assert main(["--verbose", "pipeline", "--config",
                     str(fixture_dir / "config.json")]) == 0
        assert traj_path.read_bytes() == plain

    def test_missing_urdf_is_input_error(self, fixture_dir, capsys):
        bad = write_config(fixture_dir, urdf="ghost.urdf")
        bad = bad.rename(fixture_dir / "bad_config.json")
        code = main(["pipeline", "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "\n" not in err.strip()
        write_config(fixture_dir)  # restore

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["pipeline", "--config", str(tmp_path / "none.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR config:")

    def test_align_failure_is_code_2(self, tmp_path, capsys):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        # blank the hand mask: the alignment overlap is empty
        mask_path = out / "observations" / "frame_0000.pgm"
        mask = dataio.read_pgm_mask(mask_path)
        dataio.write_pgm_mask(np.zeros_like(mask), mask_path)
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR align:")

    def test_empty_mask_mid_trajectory_is_code_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        mask_path = out / "observations" / "frame_0001.pgm"
        dataio.write_pgm_mask(np.zeros_like(dataio.read_pgm_mask(mask_path)), mask_path)
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR align: frame 1:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("suffix, payload", [
        (".pgm", b"P2\n-2 -3\n1\n" + b"0 " * 6 + b"\n"),
        (".pfm", b"Pf\n-2 -3\n-1.0\n" + b"\x00" * 24),
    ])
    def test_negative_image_size_is_input_error(self, tmp_path, capsys, suffix, payload):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        (out / "observations" / f"frame_0000{suffix}").write_bytes(payload)
        code = main(["calibrate", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("path, edit", [
        ("observations/frame_0000.ply",
         lambda text: text.replace("element vertex 600", "element vertex abc")),
        ("hand_trajectory.json", set_json(frame=0, index="x")),
        ("hand_trajectory.json", set_json(frame=0, contacts=[1, 2])),
        ("hand_trajectory.json", set_json(fps="fast")),
        ("config.json", set_json(seed="abc")),
        ("config.json", set_json(proximal_links=["a"])),
        ("config.json", set_json(mount_offset={"quat_wxyz": ["a", 0, 0, 0], "pos": [0, 0, 0]})),
        ("observations/frame_0000.ply",
         lambda text: text.replace("format ascii 1.0", "format")),
        ("config.json", set_json(align={"inner_iters": 2.5})),
        ("config.json", set_json(align={"splat_footprint": 2})),
        ("config.json", set_json(retarget={"solver": {"max_iters": "many"}})),
    ], ids=["ply-vertex-count", "frame-index", "frame-contacts", "fps", "seed", "proximal-links",
            "mount-offset", "ply-bare-format", "align-inner-iters", "align-splat-footprint",
            "solver-max-iters"])
    def test_malformed_value_is_input_error(self, tmp_path, capsys, path, edit):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        target = out / path
        text = target.read_text()
        assert edit(text) != text
        target.write_text(edit(text))
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "\n" not in err.strip()

    def test_log_env_var_accepted(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RETARGET_LOG", "INFO")
        urdf = write_urdf(tmp_path)
        assert main(["fk", "--urdf", str(urdf), "--links", "palm"]) == 0

    def test_unreachable_contacts_fail_refine(self, tmp_path, capsys):
        # contacts far outside the workspace plus a strict tip-error
        # tolerance must fail the refine stage with exit code 2
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "2",
                     "--frames", "2"]) == 0
        write_urdf(out)
        doc = json.loads((out / "hand_trajectory.json").read_text())
        doc["frames"][-1]["contacts"] = {"thumb": [5.0, 5.0, 5.0],
                                         "index": [5.0, -5.0, 5.0],
                                         "middle": [-5.0, 5.0, 5.0]}
        (out / "hand_trajectory.json").write_text(json.dumps(doc))
        write_config(out, retarget={"max_tip_error": 0.005})
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR refine_contact:")


class TestStageCommands:
    def test_calibrate_only(self, fixture_dir):
        code = main(["calibrate", "--config", str(fixture_dir / "config.json")])
        assert code == 0
        report = (fixture_dir / "out" / "report.txt").read_text()
        assert "calibration: scale=1.25" in report

    def test_align_only(self, fixture_dir):
        code = main(["align", "--config", str(fixture_dir / "config.json")])
        assert code == 0
        assert (fixture_dir / "out" / "alignments.txt").is_file()

    def test_retarget_only(self, fixture_dir):
        code = main(["retarget", "--config", str(fixture_dir / "config.json")])
        assert code == 0
        assert (fixture_dir / "out" / "robot_trajectory.json").is_file()

    def test_refine_equivalent_to_pipeline(self, fixture_dir):
        traj_path = fixture_dir / "out" / "robot_trajectory.json"
        assert main(["pipeline", "--config", str(fixture_dir / "config.json")]) == 0
        via_pipeline = traj_path.read_bytes()
        assert main(["refine", "--config", str(fixture_dir / "config.json")]) == 0
        assert traj_path.read_bytes() == via_pipeline


class TestCmdFk:
    def test_prints_link_origins(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        code = main(["fk", "--urdf", str(urdf), "--q", ",".join(["0"] * 16),
                     "--links", "middle_tip"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["middle_tip"], [0.203, 0.0, 0.0], atol=1e-12)

    def test_default_q_is_mid_limits(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        code = main(["fk", "--urdf", str(urdf), "--links", "palm"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["palm"] == [0.0, 0.0, 0.0]

    def test_unknown_link_is_input_error(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        code = main(["fk", "--urdf", str(urdf), "--links", "ghost"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR fk:")

    def test_bad_q_is_input_error(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        code = main(["fk", "--urdf", str(urdf), "--q", "zero,one"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR fk:")
