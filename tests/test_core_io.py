import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpatch.core import (
    FLO_MAGIC,
    FlowField,
    Image,
    PixelMask,
    flow_to_color,
    image_to_mask,
    mask_to_image,
    read_flo,
    read_ppm,
    write_flo,
    write_ppm,
)
from flowpatch.errors import FormatError
from flowpatch.flow import LuminanceStage


def flo_bytes(width, height, values):
    return struct.pack("<fii", FLO_MAGIC, width, height) + np.asarray(
        values, dtype="<f4"
    ).tobytes()


class TestFlo:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "a.flo"
        p.write_bytes(flo_bytes(1, 1, [3.0, 4.0]))
        flow = read_flo(p)
        assert flow.height == 1 and flow.width == 1
        assert flow.data[0, 0, 0] == 3.0 and flow.data[0, 0, 1] == 4.0

    def test_write_sizes(self, tmp_path):
        p = tmp_path / "a.flo"
        write_flo(FlowField(np.zeros((1, 1, 2))), p)
        assert p.stat().st_size == 20
        write_flo(FlowField(np.zeros((2, 2, 2))), p)
        assert p.stat().st_size == 44

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.flo"
        p.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\0" * 8)
        with pytest.raises(FormatError):
            read_flo(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.flo"
        p.write_bytes(flo_bytes(2, 2, [0.0] * 8)[:-4])
        with pytest.raises(IOError):
            read_flo(p)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_roundtrip_byte_identical(self, h, w, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((h, w, 2)).astype(np.float32) * 10
        with tempfile.TemporaryDirectory() as d:
            x, y = Path(d) / "x.flo", Path(d) / "y.flo"
            write_flo(FlowField(data), x)
            write_flo(read_flo(x), y)
            assert y.read_bytes() == x.read_bytes()


class TestPpm:
    def test_zero_image(self, tmp_path):
        p = tmp_path / "z.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
        img = read_ppm(p)
        assert img.data.shape == (2, 2, 3)
        assert np.all(img.data == 0)

    def test_byte_255_maps_to_one(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + b"\xff\xff\xff")
        assert np.all(read_ppm(p).data == 1.0)

    def test_non_p6_header(self, tmp_path):
        p = tmp_path / "p3.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError):
            read_ppm(p)

    @pytest.mark.parametrize("size", [b"0 0", b"-1 -1", b"0 4", b"4 0"])
    def test_size_below_one_rejected(self, tmp_path, size):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n")
        with pytest.raises(FormatError, match="dimensions"):
            read_ppm(path)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# comment\n1 1\n255\n\xff\x00\x7f")
        img = read_ppm(p)
        assert img.data[0, 0, 0] == 1.0

    def test_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        p = tmp_path / "r.ppm"
        p.write_bytes(b"P6\n5 4\n255\n" + raw.tobytes())
        original = p.read_bytes()
        write_ppm(read_ppm(p), tmp_path / "r2.ppm")
        assert (tmp_path / "r2.ppm").read_bytes() == original

    def test_quantized_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = Image(rng.integers(0, 256, size=(3, 3, 3)) / 255.0)
        write_ppm(img, tmp_path / "q.ppm")
        back = read_ppm(tmp_path / "q.ppm")
        assert np.array_equal(back.data, img.data)

    def test_mask_roundtrip(self, tmp_path):
        mask = PixelMask((np.arange(12).reshape(3, 4) % 2).astype(np.uint8))
        write_ppm(mask_to_image(mask), tmp_path / "m.ppm")
        back = image_to_mask(read_ppm(tmp_path / "m.ppm"))
        assert np.array_equal(back.data, mask.data)


class TestFlowColor:
    def test_zero_flow_is_white(self):
        img = flow_to_color(FlowField(np.zeros((4, 4, 2))))
        assert np.allclose(img.data, 1.0)

    def test_antipodal_directions_differ(self):
        m = 2.0
        right = flow_to_color(FlowField(np.full((1, 1, 2), (m, 0.0))))
        left = flow_to_color(FlowField(np.full((1, 1, 2), (-m, 0.0))))
        assert not np.allclose(right.data, left.data)

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(11)
        flow = FlowField(rng.standard_normal((8, 8, 2)) * 40)
        img = flow_to_color(flow)
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0


class TestTypes:
    def test_image_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 1)], ids=["HxW", "HxWx1"])
    def test_image_rejects_grayscale(self, shape):
        with pytest.raises(ValueError, match="HxWx3"):
            Image(np.zeros(shape))

    def test_image_rejects_nan(self):
        with pytest.raises(ValueError):
            Image(np.full((2, 2, 3), np.nan))

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PixelMask(np.full((2, 2), 0.5))

    def test_data_is_immutable(self):
        img = Image(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 1.0

    def test_grayscale_rec601(self):
        img = np.zeros((1, 1, 3))
        img[0, 0] = (1.0, 0.5, 0.25)
        expected = 0.299 * 1.0 + 0.587 * 0.5 + 0.114 * 0.25
        assert np.isclose(LuminanceStage(1.0)(img)[0, 0], expected)
