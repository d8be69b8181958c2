"""Depth maps held over the window of their valid pixels, checked bit for
bit against dense references: the full-grid reader, backprojection,
splat, depth-consistency loss and observation windows that the windowed
ones replace. Every reference works on full (height, width) arrays."""

import numpy as np
import pytest

from dexretarget import alignment, dataio, geometry
from dexretarget.alignment import FrameObservation, depth_consistency_loss
from dexretarget.errors import LossUndefinedError
from dexretarget.geometry import (
    CameraIntrinsics,
    DepthImage,
    RigidTransform,
    Rotation,
    backproject_depth,
    splat_depth,
)
from dexretarget.pointcloud import PointCloud, estimate_normals
from dexretarget.synthetic import SynthConfig, sample_hand_surface, synth_hand_trajectory

# ---------------------------------------------------------------------------
# dense references


def dense_depth(values):
    """Full-grid values and validity: finite positive pixels are valid and
    every other pixel reads 0."""
    values = np.asarray(values, dtype=float)
    valid = np.isfinite(values) & (values > 0)
    return np.where(valid, values, 0.0), valid


def dense_read_pfm(path):
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    w, h = (int(t) for t in parts[1].split())
    endian = "<" if float(parts[2]) < 0 else ">"
    data = np.frombuffer(parts[3][:w * h * 4], dtype=endian + "f4").reshape(h, w)
    return dense_depth(np.flipud(data).astype(float))


def dense_backproject(values, valid, K):
    vs, us = np.nonzero(valid)
    z = values[vs, us]
    return np.column_stack([(us - K.cx) / K.fx * z, (vs - K.cy) / K.fy * z, z])


def dense_splat(points, K, footprint):
    buf = np.full((K.height, K.width), np.inf)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    front = pts[pts[:, 2] > 0.0]
    z = front[:, 2]
    u = np.rint(K.fx * front[:, 0] / z + K.cx).astype(int)
    v = np.rint(K.fy * front[:, 1] / z + K.cy).astype(int)
    half = footprint // 2
    for dv in range(-half, half + 1):
        for du in range(-half, half + 1):
            uu, vv = u + du, v + dv
            ok = (uu >= 0) & (uu < K.width) & (vv >= 0) & (vv < K.height)
            np.minimum.at(buf, (vv[ok], uu[ok]), z[ok])
    return dense_depth(buf)


def dense_windows(values, valid, mask):
    """FrameObservation's window_origin, depth_window, reach_window and
    support validity, found from the full grids."""
    pad = alignment._WINDOW_PAD
    hand_mask = mask & valid
    rows = np.flatnonzero(hand_mask.any(axis=1))
    cols = np.flatnonzero(hand_mask.any(axis=0))
    v0, v1 = (rows[0], rows[-1]) if rows.size else (0, -1)
    u0, u1 = (cols[0], cols[-1]) if cols.size else (0, -1)
    box = (slice(v0, v1 + 1), slice(u0, u1 + 1))
    support = hand_mask[box]
    depth_window = np.pad(np.where(support, values[box], 0.0), pad)
    taps = np.pad(support, ((pad + 1, pad + 2),) * 2)
    taps = taps[:, :-3] | taps[:, 1:-2] | taps[:, 2:-1] | taps[:, 3:]
    reach = taps[:-3] | taps[1:-2] | taps[2:-1] | taps[3:]
    return (int(u0) - pad, int(v0) - pad), depth_window, reach, hand_mask


def dense_depth_loss(moved, values, hand_mask, K, footprint):
    rendered, rendered_valid = dense_splat(moved, K, footprint)
    omega = rendered_valid & hand_mask
    if not np.any(omega):
        return None
    return float(np.mean(np.abs(rendered[omega] - values[omega])))


# ---------------------------------------------------------------------------
# maps

SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.5])


def random_map(rng, shape, density):
    """Depths in [0.2, 3) at a share ``density`` of pixels; every other
    pixel is NaN, +-inf, +-0 or negative."""
    values = rng.choice(SPECIALS, size=shape)
    keep = rng.random(shape) < density
    values[keep] = rng.uniform(0.2, 3.0, size=shape)[keep]
    return values


def border_map(rng, shape, side):
    """Invalid everywhere but some pixels of one image border."""
    values = rng.choice(SPECIALS, size=shape)
    line = {"top": values[0], "bottom": values[-1],
            "left": values[:, 0], "right": values[:, -1]}[side]
    line[rng.random(line.shape) < 0.5] = 1.25
    line[rng.integers(len(line))] = 0.75
    return values


def single_pixel_map(rng, shape, v, u):
    values = rng.choice(SPECIALS, size=shape)
    values[v, u] = 0.5
    return values


def map_cases():
    rng = np.random.default_rng(20261019)
    cases = {}
    for k, (shape, density) in enumerate([((30, 40), 0.02), ((30, 40), 0.3), ((12, 16), 0.9),
                                          ((7, 5), 0.5), ((1, 1), 1.0), ((1, 9), 0.4)]):
        cases[f"random{k}-{shape[0]}x{shape[1]}"] = random_map(rng, shape, density)
    cases["all-invalid"] = rng.choice(SPECIALS, size=(30, 40))
    for v, u in [(0, 0), (29, 39), (13, 21)]:
        cases[f"single-{v}-{u}"] = single_pixel_map(rng, (30, 40), v, u)
    for side in ("top", "bottom", "left", "right"):
        cases[f"border-{side}"] = border_map(rng, (30, 40), side)
    return cases


MAPS = map_cases()


def intrinsics_for(shape):
    h, w = shape
    return CameraIntrinsics(fx=50.0, fy=45.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                            width=w, height=h)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_dense(img, values, valid):
    assert same_bits(img.values, values)
    assert same_bits(img.valid, valid)


# ---------------------------------------------------------------------------
# the windowed layers against the dense ones


@pytest.mark.parametrize("name", list(MAPS))
class TestAgainstDenseReference:
    def test_depth_image_window(self, name):
        values, valid = dense_depth(MAPS[name])
        img = DepthImage(values=MAPS[name])
        assert_matches_dense(img, values, valid)
        # the window is the bounding box of the valid pixels
        vs, us = np.nonzero(valid)
        if vs.size:
            assert img.origin == (us.min(), vs.min())
            assert img.window.shape == (vs.max() - vs.min() + 1, us.max() - us.min() + 1)
        else:
            assert img.origin == (0, 0) and img.window.shape == (0, 0)

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_read_pfm_depth(self, name, endian, tmp_path):
        data = MAPS[name].astype(np.float32)
        h, w = data.shape
        path = tmp_path / "depth.pfm"
        scale = b"-1.0" if endian == "<" else b"1.0"
        path.write_bytes(b"Pf\n%d %d\n%s\n" % (w, h, scale)
                         + np.flipud(data).astype(endian + "f4").tobytes())
        assert_matches_dense(dataio.read_pfm_depth(path), *dense_read_pfm(path))

    def test_backproject_depth(self, name):
        K = intrinsics_for(MAPS[name].shape)
        values, valid = dense_depth(MAPS[name])
        got = backproject_depth(DepthImage(values=MAPS[name]), K)
        assert same_bits(got, dense_backproject(values, valid, K))

    @pytest.mark.parametrize("footprint", [1, 3])
    def test_splat_depth(self, name, footprint):
        # the map's backprojection, spread past the image, plus points
        # behind the camera and on its plane
        K = intrinsics_for(MAPS[name].shape)
        rng = np.random.default_rng(len(name))
        pts = dense_backproject(*dense_depth(MAPS[name]), K)
        stray = rng.uniform(-1.0, 1.0, size=(40, 3)) * [0.5, 0.5, 2.0]
        stray[:5, 2] = 0.0
        pts = np.concatenate((pts * rng.uniform(0.8, 1.3, size=(len(pts), 1)), stray))
        assert_matches_dense(splat_depth(pts, K, footprint), *dense_splat(pts, K, footprint))

    def test_frame_observation_windows(self, name):
        rng = np.random.default_rng(len(name) + 1)
        values, valid = dense_depth(MAPS[name])
        for mask in (valid, rng.random(valid.shape) < 0.5, np.zeros_like(valid)):
            obs = observation_of(DepthImage(values=MAPS[name]), mask)
            origin, depth_window, reach, _ = dense_windows(values, valid, mask)
            assert obs.window_origin == origin
            assert same_bits(obs.depth_window, depth_window)
            assert same_bits(obs.reach_window, reach)

    @pytest.mark.parametrize("footprint", [1, 3])
    def test_depth_consistency_loss(self, name, footprint):
        K = intrinsics_for(MAPS[name].shape)
        rng = np.random.default_rng(len(name) + 2)
        values, valid = dense_depth(MAPS[name])
        mask = rng.random(valid.shape) < 0.7
        obs = observation_of(DepthImage(values=MAPS[name]), mask)
        pts = dense_backproject(values, valid, K)
        pts = np.concatenate((pts, rng.uniform(-0.3, 0.3, size=(20, 3)) + [0, 0, 1.0]))
        correction = RigidTransform(Rotation.from_rotvec([0.01, -0.02, 0.015]), [0.002, 0, 0])
        moved = 1.05 * correction.apply(pts)
        expected = dense_depth_loss(moved, values, mask & valid, K, footprint)
        if expected is None:
            with pytest.raises(LossUndefinedError):
                depth_consistency_loss(moved, obs, K, footprint)
        else:
            got = depth_consistency_loss(moved, obs, K, footprint)
            assert same_bits(got, expected)


def observation_of(depth, mask):
    cloud = PointCloud(points=np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]))
    return FrameObservation(cloud=cloud, depth=depth, hand_mask=mask)


def test_windows_of_a_full_size_frame(tmp_path):
    """A c11 frame, read back from its PFM, against every dense reference."""
    fixture = synth_hand_trajectory(SynthConfig(n_frames=2, noise_sigma=0.001, seed=7,
                                                depth_scale=0.8))
    K = fixture.intrinsics
    path = tmp_path / "frame.pfm"
    dataio.write_pfm_depth(fixture.depths[-1], path)
    img = dataio.read_pfm_depth(path)
    values, valid = dense_read_pfm(path)
    assert_matches_dense(img, values, valid)
    pts = backproject_depth(img, K)
    assert same_bits(pts, dense_backproject(values, valid, K))
    for footprint in (1, 3):
        assert_matches_dense(splat_depth(1.1 * pts, K, footprint),
                             *dense_splat(1.1 * pts, K, footprint))
    obs = observation_of(img, fixture.masks[0])
    origin, depth_window, reach, _ = dense_windows(values, valid, fixture.masks[0])
    assert obs.window_origin == origin and same_bits(obs.depth_window, depth_window)
    assert same_bits(obs.reach_window, reach)


# ---------------------------------------------------------------------------
# memory


def c11_last_frame(tmp_path):
    """The last depth map of the criterion-11 fixture, read back from its
    PFM, and the fixture."""
    fixture = synth_hand_trajectory(SynthConfig(n_frames=10, noise_sigma=0.001, seed=7,
                                                depth_scale=0.8))
    path = tmp_path / "frame.pfm"
    dataio.write_pfm_depth(fixture.depths[-1], path)
    return dataio.read_pfm_depth(path), fixture


def arrays_held_by(img):
    return [a for a in (getattr(img, slot) for slot in DepthImage.__slots__)
            if isinstance(a, np.ndarray)]


def test_depth_image_holds_no_full_size_array(tmp_path):
    """A frame read from its PFM stores only its window: the arrays it holds
    own their memory and together stay below one dense float64 map."""
    img, _ = c11_last_frame(tmp_path)
    held = arrays_held_by(img)
    assert held and all(a.base is None for a in held)
    assert sum(a.nbytes for a in held) < img.height * img.width * 8


def test_frame_observation_holds_no_full_size_array(tmp_path):
    """An observation of a c11 frame keeps its hand support as windows: its
    one depth map is the frame's, and no array it or that map holds is of
    the full (height, width) shape.
    Aligning the frame's hand against it leaves it holding the same
    objects, so the frame's pass memo does not outlive the frame on it."""
    img, fixture = c11_last_frame(tmp_path)
    obs = FrameObservation(cloud=estimate_normals(fixture.clouds[-1], k=12), depth=img,
                           hand_mask=fixture.masks[-1])
    assert [name for name, v in vars(obs).items() if isinstance(v, DepthImage)] == ["depth"]
    held = [a for a in vars(obs).values() if isinstance(a, np.ndarray)]
    held += arrays_held_by(obs.depth)
    assert held and all(a.shape != img.shape for a in held)
    before = {name: id(value) for name, value in vars(obs).items()}
    frame = fixture.trajectory.frames[-1]
    sampled = PointCloud(points=sample_hand_surface(
        frame.joints, alignment.HAND_SURFACE_POINTS, seed=7, visible_from=(0.0, 0.0, 0.0)))
    alignment.align_hand_frame(frame, sampled, obs, fixture.intrinsics)
    assert {name: id(value) for name, value in vars(obs).items()} == before


def test_full_size_views_are_built_fresh_and_read_only():
    img = DepthImage(values=MAPS["random1-30x40"])
    for name in ("values", "valid"):
        first, second = getattr(img, name), getattr(img, name)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1


# ---------------------------------------------------------------------------
# the one-pass crop and the splat's own window, against the code they replace


def reference_crop(shape, origin, depths):
    """(origin, shape, window) as the two-scan crop gave them: the outer box
    of `> 0` converted to float64, then `isfinite`, the inner box and
    `np.where`."""
    outer = geometry._bounding_box(depths > 0)
    part = np.asarray(depths[outer], dtype=float)
    valid = np.isfinite(part) & (part > 0)
    inner = geometry._bounding_box(valid)
    if inner[0].stop:
        origin = (int(origin[0]) + outer[1].start + inner[1].start,
                  int(origin[1]) + outer[0].start + inner[0].start)
    else:
        origin = (0, 0)
    return origin, (int(shape[0]), int(shape[1])), np.where(valid[inner], part[inner], 0.0)


F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
CROP_SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, -2.5, -F32_TINY, -5e-324,
                 F32_TINY, 3 * F32_TINY, 5e-324, 1e-310, 1.5, 3.25]


def crop_grids():
    """Grids holding every special value at random, all-invalid grids, one
    valid pixel, and a valid pixel on each border."""
    rng = np.random.default_rng(20261020)
    specials = np.array(CROP_SPECIALS)
    invalid = specials[:9]  # NaN, ±inf and the non-positive values
    grids = {f"random{k}": rng.choice(specials, size=shape)
             for k, shape in enumerate([(9, 13), (1, 1), (1, 7), (6, 1), (30, 40)])}
    grids["sparse"] = np.where(rng.random((30, 40)) < 0.05, 0.5, rng.choice(invalid, (30, 40)))
    grids["all-invalid"] = rng.choice(invalid, size=(12, 17))
    grids["inf-only"] = np.where(rng.random((8, 8)) < 0.5, np.inf, 0.0)
    grids["one-pixel"] = rng.choice(invalid, size=(12, 17))
    grids["one-pixel"][5, 11] = 0.75
    for side, at in (("top", (0, 6)), ("bottom", (-1, 3)), ("left", (4, 0)), ("right", (7, -1))):
        grid = rng.choice(invalid, size=(12, 17))
        grid[at] = F32_TINY
        grids[side] = grid
    # +inf ringing the valid pixels, so the inner box is smaller than the outer
    grids["inf-ring"] = np.full((10, 12), np.inf)
    grids["inf-ring"][3:6, 4:9] = rng.choice(specials, size=(3, 5))
    grids["inf-ring"][4, 6] = 2.0
    return grids


CROP_GRIDS = crop_grids()


def assert_crops_like_the_reference(img, shape, origin, depths):
    want_origin, want_shape, want_window = reference_crop(shape, origin, depths)
    assert img.origin == want_origin and img.shape == want_shape
    assert all(type(a) is int for a in img.origin + img.shape)
    assert img.window.dtype == want_window.dtype and img.window.flags.c_contiguous
    assert img.window.shape == want_window.shape
    assert img.window.tobytes() == want_window.tobytes()


@pytest.mark.parametrize("name", list(CROP_GRIDS))
@pytest.mark.parametrize("dtype", ["<f4", ">f4", "<f8", ">f8", "f2"])
class TestCropBits:
    """The crop on the input dtype gives the two-scan crop's bytes."""

    def grid(self, name, dtype):
        with np.errstate(over="ignore", under="ignore"):
            return CROP_GRIDS[name].astype(dtype)

    def test_full_grid(self, name, dtype):
        grid = self.grid(name, dtype)
        for depths in (grid, np.flipud(grid), np.fliplr(grid), grid.T):
            img = DepthImage.from_window(depths.shape, (0, 0), depths)
            assert_crops_like_the_reference(img, depths.shape, (0, 0), depths)

    def test_window_inside_a_larger_image(self, name, dtype):
        grid = self.grid(name, dtype)
        shape = (grid.shape[0] + 9, grid.shape[1] + 5)
        for origin in ((0, 0), (5, 9), (np.int64(2), np.int64(3))):
            img = DepthImage.from_window(shape, origin, grid)
            assert_crops_like_the_reference(img, shape, origin, grid)

    def test_constructor(self, name, dtype):
        grid = self.grid(name, dtype)
        assert_crops_like_the_reference(DepthImage(grid), grid.shape, (0, 0),
                                        grid.astype(float))


def test_crop_of_a_float_wider_than_float64():
    # a longdouble pixel that rounds to 0 or to inf in float64 is invalid
    grid = np.zeros((4, 5), dtype=np.longdouble)
    grid[1, 1] = np.longdouble(1.5)
    grid[0, 0] = np.longdouble(5e-324) / 4
    grid[3, 4] = np.longdouble(np.finfo(float).max) * 2
    with np.errstate(over="ignore"):  # the cast to float64 overflows, as it did
        img = DepthImage.from_window(grid.shape, (0, 0), grid)
        assert_crops_like_the_reference(img, grid.shape, (0, 0), grid)


def reference_splat_buffer(points, K, footprint):
    """The splat's z-buffer as it was built before it became the window:
    +inf where no footprint pixel lands, the least depth elsewhere, over the
    written pixels' bounding box; with that box's top-left pixel."""
    rows, cols, z = geometry.footprint_pixels(points, K, footprint)
    if not rows.size:
        return (0, 0), np.zeros((0, 0))
    v0, u0 = rows.min(), cols.min()
    buf = np.full((rows.max() - v0 + 1, cols.max() - u0 + 1), np.inf)
    np.minimum.at(buf, (rows - v0, cols - u0), z)
    return (u0, v0), buf


SPLAT_CLOUDS = {
    "empty": np.zeros((0, 3)),
    "behind": np.array([[0.0, 0.0, -1.0], [0.1, 0.0, 0.0]]),
    "outside": np.array([[50.0, 0.0, 1.0], [0.0, -50.0, 1.0]]),
    "one": np.array([[0.0, 0.0, 1.0]]),
    "corner": np.array([[-10.0, -10.0, 1.0], [10.0, 10.0, 1e-6 + 1.0]]),
    "coincident": np.array([[0.01, 0.0, 2.0], [0.01, 0.0, 1.0], [0.01, 0.0, 1.5]]),
    "subnormal-depth": np.array([[0.0, 0.0, 5e-324], [0.2, 0.1, 1.0]]),
}


@pytest.mark.parametrize("footprint", [1, 3, 5])
@pytest.mark.parametrize("cloud", list(SPLAT_CLOUDS) + ["random", "map"])
def test_splat_window_is_its_z_buffer_cropped(cloud, footprint):
    K = intrinsics_for((30, 40))
    rng = np.random.default_rng(footprint)
    if cloud == "random":
        pts = rng.uniform(-0.6, 0.6, size=(300, 3)) + [0.0, 0.0, 1.0]
    elif cloud == "map":
        pts = 1.1 * dense_backproject(*dense_depth(MAPS["random1-30x40"]), K)
    else:
        pts = SPLAT_CLOUDS[cloud]
    origin, buf = reference_splat_buffer(pts, K, footprint)
    want = DepthImage.from_window((K.height, K.width), origin, buf)
    got = splat_depth(pts, K, footprint)
    assert got.origin == want.origin and got.shape == want.shape
    assert all(type(a) is int for a in got.origin + got.shape)
    assert got.window.dtype == want.window.dtype and got.window.flags.c_contiguous
    assert got.window.shape == want.window.shape
    assert got.window.tobytes() == want.window.tobytes()
