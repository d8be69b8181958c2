import json
import logging
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dexretarget
from dexretarget import dataio, errors
from dexretarget.cli import _fail, main
from dexretarget.pointcloud import PointCloud

NAN, INF = float("nan"), float("inf")


def write_urdf(dirpath: Path) -> Path:
    text = resources.files("dexretarget.assets").joinpath(
        "four_finger_16dof.urdf").read_text()
    path = dirpath / "hand.urdf"
    path.write_text(text)
    return path


def with_ignored_elements(urdf: Path) -> None:
    """Give the URDF a <visual> in its palm link and a top-level <material>,
    both of which the parser ignores with a warning."""
    urdf.write_text(urdf.read_text().replace(
        '<link name="palm"/>', '<link name="palm"><visual/></link><material name="m"/>', 1))


@pytest.fixture(autouse=True)
def restore_root_log_level():
    """``main`` sets the root logger's level; each test gets it back."""
    root = logging.getLogger()
    level = root.level
    yield
    root.setLevel(level)


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


def set_element(*keys, to):
    """A text edit that replaces one element of a JSON document, reached by
    ``keys``, with ``to`` of it."""
    def edit(text):
        doc = json.loads(text)
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = to(parent[keys[-1]])
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

    @pytest.mark.parametrize("flag, value, name", [
        ("--frames", "-1", "n_frames"),
        ("--noise", "nan", "noise_sigma"),
        ("--noise", "inf", "noise_sigma"),
        ("--noise", "-0.001", "noise_sigma"),
        ("--depth-scale", "nan", "depth_scale"),
        ("--depth-scale", "inf", "depth_scale"),
        ("--depth-scale", "0", "depth_scale"),
        ("--seed", "-1", "seed"),
    ])
    def test_bad_value_is_input_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "out"
        code = main(["synth", "--out-dir", str(out), "--frames", "1", flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"ERROR synth: {name} must be")
        assert not out.exists()


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

    def test_verbose_does_not_change_output(self, fixture_dir, caplog):
        outputs = [fixture_dir / "out" / name
                   for name in ("robot_trajectory.json", "alignments.txt")]
        assert main(["pipeline", "--config", str(fixture_dir / "config.json")]) == 0
        plain = [path.read_bytes() for path in outputs]
        # the test runner owns the root logger, so capture the debug lines here
        with caplog.at_level(logging.DEBUG, logger="dexretarget"):
            assert main(["--verbose", "pipeline", "--config",
                         str(fixture_dir / "config.json")]) == 0
        assert [path.read_bytes() for path in outputs] == plain
        scans = [m for m in caplog.messages if "scale scan picked" in m]
        assert len(scans) == 3  # one per frame
        stops = [m for m in caplog.messages if "outer solves, stopped on" in m]
        assert len(stops) == 3  # one per frame
        assert all(m.endswith(("no-improvement", "step", "cap")) for m in stops)

    def test_missing_urdf_is_input_error(self, fixture_dir, capsys):
        bad = write_config(fixture_dir, urdf="ghost.urdf")
        bad = bad.rename(fixture_dir / "bad_config.json")
        code = main(["pipeline", "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "\n" not in err.strip()
        write_config(fixture_dir)  # restore

    @pytest.mark.parametrize("retired", [{"align": {"fd_eps": 5e-8}},
                                         {"retarget": {"solver": {"fd_eps": 1e-6}}}],
                             ids=["align", "retarget.solver"])
    def test_retired_fd_eps_is_an_unknown_key(self, fixture_dir, tmp_path, capsys, caplog,
                                              retired):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        config = str(write_config(out, **retired))
        assert main(["calibrate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and "unknown keys ['fd_eps']" in err
        assert "\n" not in err.strip()
        with caplog.at_level(logging.WARNING, logger="dexretarget"):
            assert main(["calibrate", "--lenient", "--config", config]) == 0
        assert sum("unknown keys ['fd_eps']" in m for m in caplog.messages) == 1

    @pytest.mark.parametrize("given", ["object_cloud_true", "object_cloud_pred"])
    def test_one_object_cloud_is_a_config_error(self, fixture_dir, capsys, given):
        doc = json.loads((fixture_dir / "config.json").read_text())
        doc.pop({"object_cloud_true": "object_cloud_pred",
                 "object_cloud_pred": "object_cloud_true"}[given])
        one = fixture_dir / "one_cloud.json"
        one.write_text(json.dumps(doc))
        assert main(["calibrate", "--config", str(one)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR config: {given} given alone")
        assert "\n" not in err.strip()

    def test_config_is_read_as_utf8_whatever_the_locale(self, fixture_dir, tmp_path):
        # a POSIX locale without UTF-8 mode decodes Path.read_text() as ASCII
        env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(dexretarget.__file__).resolve().parents[1])}
        doc = json.loads((fixture_dir / "config.json").read_text())
        doc.update({key: str(fixture_dir / doc[key]) for key in
                    ("urdf", "hand_trajectory", "observations_dir", "object_cloud_true",
                     "object_cloud_pred")})

        def run(name, *flags, **edits):
            config = tmp_path / name
            config.write_text(json.dumps({**doc, **edits}, ensure_ascii=False), encoding="utf-8")
            return subprocess.run([sys.executable, "-m", "dexretarget.cli", "calibrate",
                                   "--config", str(config), *flags],
                                  env=env, capture_output=True, text=True)

        # non-ASCII text the run only warns about is read, and the run passes
        done = run("note.json", "--lenient", note="caf\u00e9")
        assert done.returncode == 0 and "unknown keys ['note']" in done.stderr
        assert (tmp_path / "out" / "report.txt").is_file()
        # so is a weight table, which then names its unknown class
        table = json.loads(resources.files("dexretarget.assets").joinpath(
            "taxonomy_weights.json").read_text())
        (tmp_path / "weights.json").write_text(
            json.dumps({**table, "caf\u00e9": table["tripod"]}, ensure_ascii=False),
            encoding="utf-8")
        done = run("table.json", weight_table="weights.json")
        assert done.returncode == 1
        assert done.stderr.startswith("ERROR config: unknown taxonomy class 'caf\\xe9'")
        # a path this locale cannot name is a config error that says so
        done = run("out_e.json", output_dir="out_\u00e9")
        assert done.returncode == 1
        assert done.stderr.startswith("ERROR config: output_dir 'out_\\xe9' is no file name")
        assert "\n" not in done.stderr.strip()

    def test_ignored_urdf_elements_are_logged(self, fixture_dir, tmp_path, caplog):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        with_ignored_elements(out / "hand.urdf")
        assert main(["calibrate", "--config", str(out / "config.json")]) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warned == [f"{out / 'hand.urdf'}: ignored <visual> in link 'palm'",
                          f"{out / 'hand.urdf'}: ignored <material> element"]

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

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_depth_scale_is_input_error(self, tmp_path, capsys, scale):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        (out / "observations" / "frame_0000.pfm").write_bytes(
            f"Pf\n640 480\n{scale}\n".encode() + b"\x00" * (640 * 480 * 4))
        code = main(["calibrate", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and "PFM scale must be finite" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("payload", [b"P2\n2 1\n0\n0 1\n", b"P2 2 1 -1 0 1"],
                             ids=["writer-layout", "other-layout"])
    def test_mask_maxval_below_one_is_input_error(self, tmp_path, capsys, payload):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        (out / "observations" / "frame_0000.pgm").write_bytes(payload)
        code = main(["calibrate", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and "maxval" in err
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
        # JSON's NaN and Infinity are numbers that no positivity test rejects
        ("config.json", set_json(align={"lambda_rend": NAN})),
        ("config.json", set_json(align={"huber_delta": NAN})),
        ("config.json", set_json(retarget={"huber_delta": NAN})),
        ("config.json", set_json(retarget={"lambda_init": INF})),
        ("config.json", set_json(retarget={"solver": {"grad_tol": NAN}})),
        ("config.json", set_json(retarget={"max_tip_error": NAN})),
        ("config.json", set_json(retarget={"max_tip_error": -1})),
        ("observations/intrinsics.json", set_json(fy=INF)),
        ("observations/intrinsics.json", set_json(fx=NAN)),
        ("hand_trajectory.json", set_json(fps=NAN)),
        ("config.json", set_json(calibrate_scale="false")),
        ("config.json", set_json(seed=3.7)),
        ("config.json", set_json(urdf=5)),
        ("config.json", set_json(output_dir=5)),
        ("config.json", set_json(hand_trajectory="hand\0trajectory.json")),
        # JSON types, not Python conversions, in the hand trajectory too
        ("hand_trajectory.json", set_json(frame=0, index=9.7)),
        ("hand_trajectory.json", set_json(frame=0, index="0")),
        ("hand_trajectory.json", set_json(fps=True)),
        ("hand_trajectory.json", set_json(frame=0, confidence="0.5")),
        # and in every element of its arrays, and of the config's pose
        ("hand_trajectory.json", set_element("frames", 0, "wrist", "quat_wxyz", 0, to=str)),
        ("hand_trajectory.json", set_element("frames", 0, "wrist", "quat_wxyz", 1,
                                             to=lambda v: False)),
        ("hand_trajectory.json", set_element("frames", 0, "wrist", "quat_wxyz", 0,
                                             to=lambda v: 1e200)),
        ("hand_trajectory.json", set_element("frames", 0, "wrist", "pos", 2, to=str)),
        ("hand_trajectory.json", set_element("frames", 0, "joints", 5, 1, to=str)),
        ("hand_trajectory.json", set_element("frames", 0, "joints", 5, 1, to=lambda v: True)),
        ("hand_trajectory.json", set_element("frames", 0, "joints", 5, 1,
                                             to=lambda v: 10 ** 400)),
        ("hand_trajectory.json", set_element("frames", 0, "contacts", "thumb", 0, to=str)),
        ("config.json", set_json(mount_offset={"quat_wxyz": [True, 0, 0, 0], "pos": [0, 0, 0]})),
        ("config.json", set_json(mount_offset={"quat_wxyz": [1, 0, 0, 0], "pos": ["0", 0, 0]})),
        # a link name that is no string
        ("config.json", set_json(palm_link=["x"])),
        ("config.json", set_json(palm_link={"a": 1})),
        # JSON types, not Python conversions, in the intrinsics and the
        # config's numeric blocks
        ("observations/intrinsics.json", set_element("fx", to=str)),
        ("observations/intrinsics.json", set_element("fy", to=lambda v: True)),
        ("observations/intrinsics.json", set_element("width", to=lambda v: v + 0.9)),
        ("observations/intrinsics.json", set_element("height", to=str)),
        ("config.json", set_json(align={"huber_delta": True})),
        ("config.json", set_json(retarget={"solver": {"grad_tol": True}})),
        # class and link names are JSON strings, not str() of another type
        ("config.json", set_element("taxonomy", to=lambda v: [v])),
        ("config.json", set_json(taxonomy=3)),
        ("config.json", set_element("finger_mapping", "thumb", to=lambda v: [v])),
        ("config.json", set_element("finger_mapping", "index", to=lambda v: 5)),
        ("config.json", set_element("proximal_links", "thumb", to=lambda v: [v])),
        ("config.json", set_element("proximal_links", "ring", to=lambda v: None)),
        # every URDF number goes through one parser
        ("hand.urdf", lambda text: re.sub(r'lower="[^"]*"', 'lower="abc"', text, count=1)),
        # seeds and frame indices reach numpy's generator, which takes no
        # negative seed: with the config's seed 7, index -8 would draw at -1
        ("config.json", set_json(seed=-1)),
        ("hand_trajectory.json", set_json(frame=0, index=-8)),
        # an output directory that cannot be made
        ("config.json", set_json(output_dir="hand.urdf")),
        ("config.json", set_json(output_dir="hand.urdf/out")),
    ], ids=["ply-vertex-count", "frame-index", "frame-contacts", "fps", "seed", "proximal-links",
            "mount-offset", "ply-bare-format", "align-inner-iters", "align-splat-footprint",
            "solver-max-iters", "align-lambda-rend-nan", "align-huber-delta-nan",
            "retarget-huber-delta-nan", "retarget-lambda-init-inf", "solver-grad-tol-nan",
            "max-tip-error-nan", "max-tip-error-negative", "intrinsics-fy-inf",
            "intrinsics-fx-nan", "fps-nan", "calibrate-scale-string", "seed-float",
            "urdf-number", "output-dir-number", "path-nul", "frame-index-float",
            "frame-index-string", "fps-bool", "frame-confidence-string", "wrist-quat-string",
            "wrist-quat-bool", "wrist-quat-overflow", "wrist-pos-string", "joint-string",
            "joint-bool", "joint-integer-beyond-float", "contact-string", "mount-offset-quat-bool",
            "mount-offset-pos-string", "palm-link-list", "palm-link-object",
            "intrinsics-fx-string", "intrinsics-fy-bool", "intrinsics-width-float",
            "intrinsics-height-string", "align-huber-delta-bool", "solver-grad-tol-bool",
            "taxonomy-list", "taxonomy-number", "finger-mapping-list", "finger-mapping-number",
            "proximal-link-list", "proximal-link-null", "urdf-limit-text", "seed-negative",
            "frame-index-negative", "output-dir-is-a-file", "output-dir-under-a-file"])
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

    @pytest.mark.parametrize("block", ["align", "retarget"])
    @pytest.mark.parametrize("delta", [1e-200, 1e200])
    def test_huber_delta_whose_square_is_no_normal_float_is_input_error(
            self, tmp_path, capsys, block, delta):
        # positive and finite, but its square underflows or overflows: the
        # solver's pseudo-Huber terms would turn non-finite mid-run
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        target = out / "config.json"
        target.write_text(set_json(**{block: {"huber_delta": delta}})(target.read_text()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pipeline", "--config", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and "huber_delta" in err
        assert "\n" not in err.strip()

    def test_number_is_no_link_name_even_when_a_link_has_its_digits(self, tmp_path, capsys):
        # str(5) would select the link named "5"
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        urdf = write_urdf(out)
        urdf.write_text(urdf.read_text().replace('"thumb_medial"', '"5"'))
        write_config(out, proximal_links={"thumb": 5})
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config: proximal_links.thumb")
        assert "JSON number" in err and "\n" not in err.strip()

    @pytest.mark.parametrize("weight", [NAN, INF, -0.5], ids=["nan", "inf", "negative"])
    def test_bad_weight_is_input_error(self, tmp_path, capsys, weight):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out, weight_table="weights.json")
        text = resources.files("dexretarget.assets").joinpath("taxonomy_weights.json").read_text()
        doc = json.loads(text)
        doc["medium-wrap"]["wrist-to-tip"] = weight
        (out / "weights.json").write_text(json.dumps(doc))
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "weight must be finite and >= 0" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("payload", [
        b"[]",
        "{\"medium-wrap\": {}}".encode("utf-16"),
        json.dumps({"medium-wrap": 3}).encode(),
        json.dumps({"medium-wrap": {"wrist-to-tip": "heavy"}}).encode(),
    ], ids=["list-root", "not-utf8", "row-not-object", "weight-string"])
    def test_malformed_weight_table_is_input_error(self, tmp_path, capsys, payload):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out, weight_table="weights.json")
        (out / "weights.json").write_bytes(payload)
        code = main(["calibrate", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("weight", [True, "2.5"], ids=["true", "numeric-string"])
    def test_weight_that_is_no_json_number_is_input_error(self, tmp_path, capsys, weight):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out, weight_table="weights.json")
        text = resources.files("dexretarget.assets").joinpath("taxonomy_weights.json").read_text()
        doc = json.loads(text)
        doc["medium-wrap"]["wrist-to-tip"] = weight
        (out / "weights.json").write_text(json.dumps(doc))
        code = main(["calibrate", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:")
        assert "weight must be a number" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("points", [
        np.outer(np.linspace(0.0, 0.1, 40), [1.0, 2.0, 3.0]) + [0.0, 0.0, 0.5],
        np.tile([0.01, 0.02, 0.5], (40, 1)),
    ], ids=["collinear", "coincident"])
    def test_degenerate_object_cloud_fails_calibration(self, tmp_path, capsys, points):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        write_config(out)
        for name in ("object_true.ply", "object_pred.ply"):
            dataio.write_ply(PointCloud(points=points), out / name)
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR calibrate:")
        assert "\n" not in err.strip()

    def test_contacts_only_on_unmapped_digits_skip_refinement(self, fixture_dir, tmp_path):
        # the four-finger mapping has no pinky, so no contact has a robot tip
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        doc = json.loads((out / "hand_trajectory.json").read_text())
        last = doc["frames"][-1]
        last["contacts"] = {"pinky": last["contacts"]["pinky"]}
        (out / "hand_trajectory.json").write_text(json.dumps(doc))
        assert main(["pipeline", "--config", str(out / "config.json")]) == 0
        assert (out / "out" / "robot_trajectory.json").is_file()
        report = (out / "out" / "report.txt").read_text()
        assert "alignment:" in report and "refinement" not in report

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

    @pytest.mark.parametrize("command, blocked", [("pipeline", "robot_trajectory.json"),
                                                  ("calibrate", "report.txt")])
    def test_unwritable_output_is_input_error(self, fixture_dir, tmp_path, capsys, command,
                                              blocked):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        shutil.rmtree(out / "out", ignore_errors=True)
        (out / "out" / blocked).mkdir(parents=True)
        code = main([command, "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR output:") and blocked in err
        assert "\n" not in err.strip()

    def test_urdf_that_is_no_utf8_is_input_error(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        urdf = out / "hand.urdf"
        urdf.write_bytes(b"\xff\xfe<robot/>")
        for argv, stage in ((["calibrate", "--config", str(out / "config.json")], "config"),
                            (["fk", "--urdf", str(urdf)], "fk")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"ERROR {stage}:") and "not a text file" in err
            assert "\n" not in err.strip()

    @pytest.mark.parametrize("object_clouds", [True, False],
                             ids=["with-object-clouds", "without-object-clouds"])
    @pytest.mark.parametrize("image", ["intrinsics", "mask"])
    def test_observation_size_other_than_intrinsics_is_input_error(self, tmp_path, capsys,
                                                                   object_clouds, image):
        out = tmp_path / "fix"
        assert main(["synth", "--out-dir", str(out), "--seed", "4",
                     "--frames", "1"]) == 0
        write_urdf(out)
        config = write_config(out)
        if not object_clouds:
            doc = json.loads(config.read_text())
            del doc["object_cloud_true"], doc["object_cloud_pred"]
            config.write_text(json.dumps(doc))
        obs = out / "observations"
        if image == "intrinsics":
            # the 640x480 depth map and mask against 320x240 intrinsics
            obs.joinpath("intrinsics.json").write_text(set_json(
                fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)(
                obs.joinpath("intrinsics.json").read_text()))
            bad, sizes = "frame_0000.pfm", ("640x480", "320x240")
        else:
            mask = dataio.read_pgm_mask(obs / "frame_0000.pgm")
            dataio.write_pgm_mask(mask[:240, :320], obs / "frame_0000.pgm")
            bad, sizes = "frame_0000.pgm", ("320x240", "640x480")
        code = main(["pipeline", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR config:") and bad in err
        assert err.index(sizes[0]) < err.index(sizes[1])
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("n_points", [0, 2])
    def test_cloud_below_three_points_is_input_error_naming_frame(self, fixture_dir, tmp_path,
                                                                  capsys, n_points):
        out = tmp_path / "fix"
        shutil.copytree(fixture_dir, out)
        path = out / "observations" / "frame_0001.ply"
        dataio.write_ply(PointCloud(points=dataio.read_ply(path).points[:n_points]), path)
        code = main(["pipeline", "--config", str(out / "config.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR config: frame 1: {path} has {n_points} points")
        assert "\n" not in err.strip()


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

    def test_axis_without_xyz_is_input_error(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        urdf.write_text(re.sub(r'<axis xyz="[^"]*"/>', "<axis/>", urdf.read_text(), count=1))
        code = main(["fk", "--urdf", str(urdf)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR fk: joint ") and "axis xyz is missing" in err
        assert "\n" not in err.strip()

    def test_ignored_elements_are_logged_and_change_no_output(self, tmp_path, capsys, caplog):
        urdf = write_urdf(tmp_path)
        assert main(["fk", "--urdf", str(urdf)]) == 0
        plain = capsys.readouterr().out
        assert not caplog.records
        with_ignored_elements(urdf)
        assert main(["fk", "--urdf", str(urdf)]) == 0
        assert capsys.readouterr().out == plain
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, f"{urdf}: ignored <visual> in link 'palm'"),
            (logging.WARNING, f"{urdf}: ignored <material> element")]

    def test_log_level_is_set_on_every_call(self, tmp_path, monkeypatch):
        # one process, several calls: the second must not keep the first's level
        monkeypatch.delenv("RETARGET_LOG", raising=False)
        urdf = write_urdf(tmp_path)
        for flags, level in (([], logging.WARNING), (["--verbose"], logging.DEBUG),
                             ([], logging.WARNING)):
            assert main([*flags, "fk", "--urdf", str(urdf), "--links", "palm"]) == 0
            assert logging.getLogger().level == level

    def test_bad_q_is_input_error(self, tmp_path, capsys):
        urdf = write_urdf(tmp_path)
        code = main(["fk", "--urdf", str(urdf), "--q", "zero,one"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR fk:")

    def test_negative_q_after_space(self, tmp_path, capsys):
        # a joint list that starts with a minus sign is a value, not an option
        urdf = write_urdf(tmp_path)
        q = ",".join(["-0.1"] + ["0"] * 15)
        assert main(["fk", "--urdf", str(urdf), "--q", q, "--links", "thumb_tip"]) == 0
        spaced = capsys.readouterr().out
        assert main(["fk", "--urdf", str(urdf), "--q=" + q, "--links", "thumb_tip"]) == 0
        assert spaced == capsys.readouterr().out
        assert main(["fk", "--urdf", str(urdf), "--q", ",".join(["0"] * 16),
                     "--links", "thumb_tip"]) == 0
        assert spaced != capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_q_is_input_error(self, tmp_path, capsys, value):
        # NaN would print as invalid JSON; an infinity also warns in numpy
        urdf = write_urdf(tmp_path)
        # "--q=" so that argparse does not read "-inf,..." as an option
        code = main(["fk", "--urdf", str(urdf), "--q=" + ",".join([value] + ["0"] * 15)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR fk:") and "finite" in captured.err
        assert "\n" not in captured.err.strip()


CONVERGENCE_ERRORS = (errors.AlignmentError, errors.RegistrationError, errors.RetargetError,
                      errors.RefineError, errors.SolverStartError, errors.LineSearchError)


class TestExitCode:
    @pytest.mark.parametrize("error", CONVERGENCE_ERRORS, ids=lambda e: e.__name__)
    def test_convergence_error_exits_2(self, error, capsys):
        assert issubclass(error, errors.ConvergenceError)
        assert _fail("align", error("no\nfit")) == 2
        assert capsys.readouterr().err == "ERROR align: no fit\n"

    def test_every_convergence_error_is_listed(self):
        assert set(errors.ConvergenceError.__subclasses__()) == set(CONVERGENCE_ERRORS)

    @pytest.mark.parametrize("error", [errors.DegenerateGeometryError, errors.LossUndefinedError,
                                       errors.ConfigError, OSError], ids=lambda e: e.__name__)
    def test_any_other_error_exits_1(self, error, capsys):
        assert _fail("config", error("bad input")) == 1
        assert capsys.readouterr().err == "ERROR config: bad input\n"

    def test_report_rides_on_the_error(self):
        report = object()
        assert errors.RefineError("far", report=report).report is report
        assert errors.RegistrationError("far").report is None


def write_continuous_thumb_urdf(dirpath: Path) -> Path:
    """The bundled hand with thumb_abduct made a continuous joint."""
    path = write_urdf(dirpath)
    text = path.read_text()
    joint = '<joint name="thumb_abduct" type="revolute">'
    assert joint in text
    path.write_text(text.replace(joint, '<joint name="thumb_abduct" type="continuous">'))
    return path


class TestContinuousJoint:
    """A continuous joint passes through the limit clamp; the solvers still
    keep it inside its finite one-turn box."""

    def test_pipeline_stays_in_box(self, tmp_path):
        out = tmp_path / "c11"
        assert main(["synth", "--out-dir", str(out), "--seed", "7", "--frames", "10",
                     "--noise", "0.001", "--depth-scale", "0.8"]) == 0
        urdf = write_continuous_thumb_urdf(out)
        write_config(out)
        assert main(["pipeline", "--config", str(out / "config.json")]) == 0
        from dexretarget.robot_model import parse_urdf
        model = parse_urdf(urdf.read_text())
        i = model.actuated_order.index("thumb_abduct")
        lo, hi = model.limit_arrays()
        assert (lo[i], hi[i]) == (-2.0 * np.pi, 2.0 * np.pi)
        traj = dataio.read_robot_trajectory(out / "out" / "robot_trajectory.json", model)
        assert len(traj.frames) == 10
        for frame in traj.frames:
            assert np.all(frame.q >= lo) and np.all(frame.q <= hi)

    def test_fk_beyond_one_turn(self, tmp_path, capsys):
        urdf = write_continuous_thumb_urdf(tmp_path)
        q = ",".join(["20"] + ["0"] * 15)
        assert main(["fk", "--urdf", str(urdf), "--q=" + q, "--links", "thumb_tip"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.all(np.isfinite(out["thumb_tip"]))
