import numpy as np
import pytest
from telea_oracle import _FAR, _eikonal, telea_oracle

from flowpatch.defense import TeleaInpaintStage, defend, ilp_config, telea_inpaint_array
from flowpatch.defense.inpaint import _INSIDE, _KNOWN, _PAD, _march
from flowpatch.diff import ALL
from flowpatch.harness import ingest_dataset, synth_dataset


def left_right_image(width=7, height=7, a=0.2, b=0.8):
    data = np.empty((height, width, 1))
    data[:, : width // 2 + 1] = a
    data[:, width // 2 + 1 :] = b
    return data


def oracle_single_pixel_fill(image, r, c, radius):
    """Independent weight enumeration for one masked pixel.

    With a single masked pixel all known arrival times are 0 and the pixel's
    own arrival time comes from the closed-form eikonal update; the front
    gradient is therefore 0 and every weight reduces to the directional floor
    times geometric and level-set factors.
    """
    h, w, _ = image.shape
    flags = np.zeros((h, w), np.int8)
    T = np.zeros((h, w))
    t_center = _eikonal(T, flags, r - 1, c, r, c - 1, h, w)
    for pair in (((r + 1, c), (r, c - 1)), ((r - 1, c), (r, c + 1)), ((r + 1, c), (r, c + 1))):
        (r1, c1), (r2, c2) = pair
        t_center = min(t_center, _eikonal(T, flags, r1, c1, r2, c2, h, w))
    acc = np.zeros(image.shape[2])
    wsum = 0.0
    for k in range(h):
        for l in range(w):
            if (k, l) == (r, c):
                continue
            d2 = float((r - k) ** 2 + (c - l) ** 2)
            if d2 > radius * radius:
                continue
            direction = 1.0e-6  # zero front gradient everywhere
            weight = direction / d2 / (1.0 + abs(0.0 - t_center))
            acc += weight * image[k, l]
            wsum += weight
    return acc / wsum


class TestTelea:
    def test_constant_image_any_mask(self):
        img = np.full((8, 8, 3), 0.42)
        mask = np.zeros((8, 8))
        mask[2:5, 3:6] = 1
        out = TeleaInpaintStage(5)(img, mask)
        assert np.allclose(out, 0.42)

    def test_unmasked_pixels_bit_identical(self):
        rng = np.random.default_rng(12)
        img = rng.uniform(0, 1, (10, 12, 3))
        mask = np.zeros((10, 12))
        mask[4:8, 5:9] = 1
        out = TeleaInpaintStage(4)(img, mask)
        outside = mask == 0
        assert np.array_equal(out[outside], img[outside])

    def test_single_pixel_between_halves(self):
        img = left_right_image()
        r, c = 3, 3  # on the boundary column between the two halves
        mask = np.zeros((7, 7))
        mask[r, c] = 1
        out = TeleaInpaintStage(3)(img, mask)
        filled = out[r, c, 0]
        assert 0.2 < filled < 0.8
        expected = oracle_single_pixel_fill(img, r, c, 3)
        assert np.allclose(out[r, c], expected)

    def test_filled_values_bounded_by_known_range(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0.3, 0.7, (12, 12, 3))
        mask = np.zeros((12, 12))
        mask[3:9, 3:9] = 1
        out = TeleaInpaintStage(5)(img, mask)
        known = img[mask == 0]
        inside = out[mask == 1]
        assert inside.min() >= known.min() - 1e-12
        assert inside.max() <= known.max() + 1e-12

    def test_mask_touching_border(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, (6, 6, 3))
        mask = np.zeros((6, 6))
        mask[0, :3] = 1
        out = TeleaInpaintStage(2)(img, mask)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[mask == 0], img[mask == 0])

    def test_all_ones_mask_is_error(self):
        with pytest.raises(ValueError):
            TeleaInpaintStage(2)(np.zeros((4, 4, 3)), np.ones((4, 4)))

    def test_image_smaller_than_mask_is_error(self):
        with pytest.raises(ValueError, match="does not match mask"):
            telea_inpaint_array(np.zeros((4, 5, 3)), np.eye(5), 2)

    def test_image_larger_than_mask_is_error(self):
        with pytest.raises(ValueError, match="does not match mask"):
            telea_inpaint_array(np.zeros((6, 5, 3)), np.eye(5), 2)

    def test_2d_image_is_error(self):
        with pytest.raises(ValueError, match="does not match mask"):
            telea_inpaint_array(np.zeros((5, 5)), np.eye(5), 2)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, (9, 9, 3))
        mask = np.zeros((9, 9))
        mask[2:7, 2:7] = 1
        a = TeleaInpaintStage(3)(img, mask)
        b = TeleaInpaintStage(3)(img, mask)
        assert np.array_equal(a, b)

    def test_bpda_backward_zeroes_inpainted(self):
        stage = TeleaInpaintStage(3)
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 1, (4, 4, 3))
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1
        ctx = {"needed": (ALL,) * 2}
        stage.forward(ctx, (img, mask))
        u = rng.standard_normal((4, 4, 3))
        img_cot, mask_cot = stage.backward(ctx, (u,))
        assert np.array_equal(img_cot[mask == 0], u[mask == 0])
        assert np.all(img_cot[mask == 1] == 0)
        assert np.all(mask_cot == 0)


def bit_identical(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def oracle_case(i, rng):
    """Case `i` of the seeded oracle comparison: (image, mask, radius, kind).

    Radius and channel count cycle fastest, so every mask kind meets every
    radius 1-6 with 1 and 3 channels; border rectangles cycle through the
    four edges and four corners.
    """
    radius = 1 + i % 6
    channels = (1, 3)[(i // 6) % 2]
    kind = ("random", "border", "single", "islands")[(i // 12) % 4]
    h, w = (int(n) for n in rng.integers(2, 17, size=2))
    image = rng.uniform(0.0, 1.0, (h, w, channels))
    mask = np.zeros((h, w))

    def band(n, at_start, at_end):
        lo, hi = sorted(rng.choice(n + 1, size=2, replace=False))
        return slice(0 if at_start else lo, n if at_end else hi)

    if kind == "random":
        mask[rng.uniform(size=(h, w)) < rng.uniform(0.1, 0.8)] = 1
    elif kind == "border":
        edge = ("t", "b", "l", "r", "tl", "tr", "bl", "br")[i % 8]
        mask[band(h, "t" in edge, "b" in edge), band(w, "l" in edge, "r" in edge)] = 1
    elif kind == "single":
        mask[rng.integers(h), rng.integers(w)] = 1
    else:  # one-pixel known islands in a masked field
        mask[:] = 1
        step = int(rng.integers(2, 5))
        mask[rng.integers(step) :: step, rng.integers(step) :: step] = 0
    if mask.all():
        mask[h // 2, w // 2] = 0
    return image, mask, radius, kind


class TestTeleaOracle:
    """`telea_inpaint_array` against the scalar loop of `telea_oracle`, bit for bit."""

    def test_seeded_random_cases(self):
        rng = np.random.default_rng(20240)
        combos, touched = set(), set()
        for i in range(240):
            image, mask, radius, kind = oracle_case(i, rng)
            combos.add((kind, radius, image.shape[2]))
            borders = {"t": mask[0], "b": mask[-1], "l": mask[:, 0], "r": mask[:, -1],
                       "tl": mask[0, 0], "tr": mask[0, -1], "bl": mask[-1, 0], "br": mask[-1, -1]}
            touched.update(name for name, pixels in borders.items() if np.any(pixels))
            fast = telea_inpaint_array(image, mask, radius)
            assert bit_identical(fast, telea_oracle(image, mask, radius)), (
                f"case {i}: {kind} mask {mask.shape}, radius {radius}, {image.shape[2]} channels"
            )
        assert len(combos) == 4 * 6 * 2
        assert touched == {"t", "b", "l", "r", "tl", "tr", "bl", "br"}

    def test_negative_zero_window(self):
        # A window whose known values are all -0.0 sums to +0.0 in the
        # scalar loop, which starts its sum at +0.0.
        image = np.full((6, 7, 2), -0.0)
        image[..., 1] = np.linspace(0.1, 0.9, 42).reshape(6, 7)
        mask = np.zeros((6, 7))
        mask[2:4, 2:5] = 1
        assert bit_identical(telea_inpaint_array(image, mask, 3), telea_oracle(image, mask, 3))

    @pytest.mark.parametrize("size", [(32, 64), (64, 128)])
    def test_ilp_masks_of_benchmark_scene(self, tmp_path, size):
        frames = ingest_dataset(synth_dataset(1, *size, 7, tmp_path)).frames
        cfg = ilp_config()
        for frame in (frames[0].frame1, frames[0].frame2):
            mask = defend(frame, cfg)[1].data
            assert mask.any()
            fast = telea_inpaint_array(frame.data, mask, cfg.r_telea)
            assert bit_identical(fast, telea_oracle(frame.data, mask, cfg.r_telea))

    def test_nan_and_inf_under_the_mask_are_never_read(self):
        rng = np.random.default_rng(21)
        image = rng.uniform(0.0, 1.0, (12, 14, 3))
        mask = np.zeros((12, 14))
        mask[3:9, 4:11] = 1
        mask[0, 0] = mask[11, 5] = 1
        image[mask > 0] = np.array([np.nan, np.inf, -np.inf])
        for radius in (1, 3, 5):
            fast = telea_inpaint_array(image, mask, radius)
            assert np.all(np.isfinite(fast[mask > 0]))
            assert bit_identical(fast, telea_oracle(image, mask, radius))

    @pytest.mark.parametrize("radius", [1, 5])
    @pytest.mark.parametrize("shape", ["frame", "cross", "two-islands"])
    def test_named_masks(self, radius, shape):
        # The frame and the cross touch all four borders, so windows near
        # them reach into the pad; the two islands are disconnected.
        rng = np.random.default_rng(22)
        image = rng.uniform(0.0, 1.0, (16, 19, 3))
        mask = np.zeros((16, 19))
        if shape == "frame":
            mask[:2] = mask[-2:] = 1
            mask[:, :2] = mask[:, -2:] = 1
        elif shape == "cross":
            mask[7:9] = 1
            mask[:, 9] = 1
        else:
            mask[2:7, 3:8] = 1
            mask[9:14, 11:17] = 1
        assert bit_identical(telea_inpaint_array(image, mask, radius),
                             telea_oracle(image, mask, radius))

    def test_ring_mask_with_equal_arrival_times(self):
        rng = np.random.default_rng(24)
        image = rng.uniform(0.0, 1.0, (17, 17, 3))
        mask = np.zeros((17, 17))
        mask[3:14, 3:14] = 1
        mask[7:10, 7:10] = 0
        # The ring is symmetric, so many pixels tie on arrival time and
        # their order comes from the heap's index tie-break.
        radius = 4
        hp = wp = 17 + 2 * radius
        flags = np.full((hp, wp), _PAD, dtype=np.int8)
        flags[radius:-radius, radius:-radius] = np.where(mask > 0, _INSIDE, _KNOWN)
        T = np.where(flags == _INSIDE, _FAR, 0.0).ravel()
        order = _march(flags.ravel(), T, wp)[0]
        assert len(np.unique(T[order])) < len(order) // 4
        for r in (1, radius):
            assert bit_identical(telea_inpaint_array(image, mask, r), telea_oracle(image, mask, r))


class TestSharedPass:
    """`TeleaInpaintStage` on (image1, mask, image2): both images inpainted
    in one pass, each bit for bit its own single-image pass."""

    @staticmethod
    def masks(rng, shape):
        h, w = shape
        touching = np.zeros(shape)
        touching[0:3, w - 4:] = 1
        touching[h - 2:, 0:5] = 1
        touching[rng.uniform(size=shape) < 0.2] = 1
        return {"border": touching, "random": (rng.uniform(size=shape) < 0.4).astype(float),
                "empty": np.zeros(shape)}

    @pytest.mark.parametrize("kind", ["border", "random", "empty"])
    @pytest.mark.parametrize("radius", [1, 5])
    def test_each_image_is_its_single_pass(self, kind, radius):
        rng = np.random.default_rng(21)
        shape = (13, 19)
        mask = self.masks(rng, shape)[kind]
        image1, image2 = rng.uniform(0, 1, (2,) + shape + (3,))
        stage = TeleaInpaintStage(radius)
        out1, out2 = stage(image1, mask, image2)
        for got, image in ((out1, image1), (out2, image2)):
            assert bit_identical(got, stage(image, mask))
            assert got.flags.c_contiguous

    def test_bpda_backward_and_support_per_image(self):
        rng = np.random.default_rng(22)
        shape = (13, 19)
        mask = self.masks(rng, shape)["border"]
        keep = mask == 0
        images = rng.uniform(0, 1, (2,) + shape + (3,))
        stage = TeleaInpaintStage(3)
        ctx = {"needed": (ALL,) * 3}
        stage.forward(ctx, (images[0], mask, images[1]))
        cots = rng.standard_normal((2,) + shape + (3,))
        cot1, mask_cot, cot2 = stage.backward(ctx, tuple(cots))
        for got, u in ((cot1, cots[0]), (cot2, cots[1])):
            assert np.array_equal(got[keep], u[keep]) and np.all(got[~keep] == 0)
        assert mask_cot.shape == shape and np.all(mask_cot == 0)
        active = np.zeros(shape, dtype=bool)
        active[2:9, 3:12] = True
        first, second = stage.support(ctx, (active, ALL, None))
        assert np.array_equal(first, active & keep) and second is None
        first, second = stage.support(ctx, (None, None, ALL))
        assert first is None and np.array_equal(second, keep)
