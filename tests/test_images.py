"""PPM codec and pyramid resampling tests."""

import numpy as np
import pytest

from restyle import images
from restyle.errors import ContractError, PpmParseError


def make_ppm(w, h, pixel_bytes):
    return b"P6\n%d %d\n255\n" % (w, h) + bytes(pixel_bytes)


class TestPpm:
    def test_single_red_pixel(self):
        img = images.load_ppm(make_ppm(1, 1, [255, 0, 0]))
        np.testing.assert_allclose(img, [[[1.0, 0.0, 0.0]]])

    def test_save_load_roundtrip_bytes(self):
        rng = np.random.default_rng(0)
        raw = make_ppm(5, 3, rng.integers(0, 256, size=45, dtype=np.uint8).tolist())
        assert images.save_ppm(images.load_ppm(raw)) == raw

    def test_load_save_value_error_bound(self):
        rng = np.random.default_rng(1)
        img = rng.random((4, 6, 3)).astype(np.float32)
        back = images.load_ppm(images.save_ppm(img))
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0 + 1e-7

    def test_header_with_comments(self):
        raw = b"P6\n# a comment\n2 1\n# more\n255\n" + bytes([0, 0, 0, 255, 255, 255])
        img = images.load_ppm(raw)
        assert img.shape == (1, 2, 3)
        np.testing.assert_allclose(img[0, 1], [1.0, 1.0, 1.0])

    def test_wrong_magic(self):
        with pytest.raises(PpmParseError) as exc:
            images.load_ppm(b"P5\n1 1\n255\n\x00\x00\x00")
        assert exc.value.offset == 0

    def test_truncated_payload(self):
        with pytest.raises(PpmParseError) as exc:
            images.load_ppm(make_ppm(2, 2, [0] * 5))
        assert exc.value.offset > 0

    def test_overlong_dimension(self):
        # more digits than int() converts by default (4300)
        with pytest.raises(PpmParseError, match="digits"):
            images.load_ppm(b"P6\n" + b"9" * 5000 + b" 1\n255\n")

    def test_bad_maxval(self):
        with pytest.raises(PpmParseError):
            images.load_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_save_clamps(self):
        img = np.array([[[2.0, -1.0, 0.5]]], dtype=np.float32)
        raw = images.save_ppm(img)
        assert raw.endswith(bytes([255, 0, 128]))


class TestResampling:
    def test_constant_preserved(self):
        img = np.full((4, 6, 3), 0.3, dtype=np.float32)
        np.testing.assert_allclose(images.downsample(img), np.full((2, 3, 3), 0.3), rtol=1e-6)
        np.testing.assert_allclose(images.upsample(img), np.full((8, 12, 3), 0.3), rtol=1e-6)

    def test_downsample_mean(self):
        img = np.zeros((2, 2, 3), dtype=np.float32)
        img[1, 0] = img[1, 1] = 1.0
        np.testing.assert_allclose(images.downsample(img), np.full((1, 1, 3), 0.5))

    def test_blockwise_roundtrip(self):
        rng = np.random.default_rng(2)
        small = rng.random((3, 4, 3)).astype(np.float32)
        block = images.upsample(small)
        np.testing.assert_allclose(images.upsample(images.downsample(block)), block, atol=1e-6)

    def test_downsample_odd_raises(self):
        with pytest.raises(ContractError):
            images.downsample(np.zeros((3, 4, 3), dtype=np.float32))

    def test_range_preserved(self):
        rng = np.random.default_rng(3)
        img = rng.random((8, 8, 3)).astype(np.float32)
        for out in (images.downsample(img), images.upsample(img)):
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_downsample_commutes_with_channel_permutation(self):
        rng = np.random.default_rng(4)
        img = rng.random((6, 6, 3)).astype(np.float32)
        perm = [2, 0, 1]
        np.testing.assert_array_equal(
            images.downsample(img[:, :, perm]), images.downsample(img)[:, :, perm])


class TestResamplingExact:
    """Strided resampling equals numpy's reshape-mean and repeat formulas bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [384, 96, 6])
    def test_downsample(self, size, dtype):
        img = np.random.default_rng(size).random((size, size, 3)).astype(dtype)
        want = img.reshape(size // 2, 2, size // 2, 2, 3).mean(axis=(1, 3), dtype=np.float32)
        got = images.downsample(img)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [384, 96, 6])
    def test_upsample(self, size, dtype):
        img = np.random.default_rng(size).random((size // 2, size // 2, 3)).astype(dtype)
        want = np.repeat(np.repeat(img, 2, axis=0), 2, axis=1)
        got = images.upsample(img)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestLevelInputs:
    def test_pairs_are_reversed_pyramids(self):
        """`pyramid` gives each level's input, finest first: the image itself,
        then each level the `downsample` of the one before."""
        c = np.random.default_rng(8).random((16, 24, 3)).astype(np.float32)
        chain = images.pyramid(c, 3)
        assert len(chain) == 3 and chain[0] is c
        for fine, coarse in zip(chain, chain[1:]):
            np.testing.assert_array_equal(coarse, images.downsample(fine))


class TestLayout:
    def test_chw_roundtrip(self):
        rng = np.random.default_rng(7)
        img = rng.random((5, 7, 3)).astype(np.float32)
        np.testing.assert_array_equal(images.from_chw(images.to_chw(img)), img)
