import numpy as np
import pytest

from flowpatch.defense import TeleaInpaintStage
from flowpatch.defense.inpaint import _FAR, _eikonal


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
        ctx = {}
        stage.forward(ctx, (img, mask))
        u = rng.standard_normal((4, 4, 3))
        img_cot, mask_cot = stage.backward(ctx, (u,))
        assert np.array_equal(img_cot[mask == 0], u[mask == 0])
        assert np.all(img_cot[mask == 1] == 0)
        assert np.all(mask_cot == 0)
