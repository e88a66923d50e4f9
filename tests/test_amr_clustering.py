"""Tests for the Berger-Rigoutsos clusterer and prolongation/projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.clustering import Box, cluster_flagged_cells
from repro.amr.interpolation import prolong_boxes, prolong_linear, time_interpolate
from repro.amr.projection import block_average


def coverage_check(flags: np.ndarray, boxes: list[Box]) -> bool:
    """True iff every flagged cell lies inside some box."""
    covered = np.zeros_like(flags, dtype=bool)
    for b in boxes:
        covered[tuple(slice(l, h) for l, h in zip(b.lo, b.hi))] = True
    return bool(np.all(covered | ~flags))


class TestClustering:
    def test_empty_flags(self):
        assert cluster_flagged_cells(np.zeros((8, 8, 8), dtype=bool)) == []

    def test_single_cell(self):
        flags = np.zeros((8, 8, 8), dtype=bool)
        flags[3, 4, 5] = True
        boxes = cluster_flagged_cells(flags)
        assert coverage_check(flags, boxes)
        assert len(boxes) == 1
        assert boxes[0].n_cells <= 8

    def test_full_block(self):
        flags = np.zeros((8, 8, 8), dtype=bool)
        flags[2:6, 2:6, 2:6] = True
        boxes = cluster_flagged_cells(flags)
        assert len(boxes) == 1
        assert boxes[0].lo == (2, 2, 2) and boxes[0].hi == (6, 6, 6)

    def test_two_separated_blobs_split(self):
        flags = np.zeros((16, 8, 8), dtype=bool)
        flags[1:3, 2:4, 2:4] = True
        flags[12:14, 2:4, 2:4] = True
        boxes = cluster_flagged_cells(flags)
        assert coverage_check(flags, boxes)
        assert len(boxes) == 2  # the signature hole splits them

    def test_l_shape_efficiency(self):
        flags = np.zeros((16, 16, 4), dtype=bool)
        flags[0:12, 0:4, :] = True
        flags[0:4, 4:12, :] = True
        boxes = cluster_flagged_cells(flags, efficiency=0.8)
        assert coverage_check(flags, boxes)
        covered = sum(b.n_cells for b in boxes)
        flagged = flags.sum()
        assert covered < 2.0 * flagged  # much better than one bounding box

    def test_efficiency_threshold_respected(self):
        rng = np.random.default_rng(0)
        flags = rng.random((16, 16, 16)) < 0.05
        boxes = cluster_flagged_cells(flags, efficiency=0.5, min_size=2)
        assert coverage_check(flags, boxes)

    def test_box_helpers(self):
        b = Box((1, 2, 3), (4, 6, 9))
        assert b.dims == (3, 4, 6)
        assert b.n_cells == 72
        s = b.shifted((10, 0, 0))
        assert s.lo == (11, 2, 3)

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_coverage_property(self, seed, density):
        rng = np.random.default_rng(seed)
        flags = rng.random((12, 12, 12)) < density
        boxes = cluster_flagged_cells(flags)
        assert coverage_check(flags, boxes)
        # boxes stay in bounds
        for b in boxes:
            assert all(l >= 0 for l in b.lo)
            assert all(h <= 12 for h in b.hi)
            assert all(h > l for l, h in zip(b.lo, b.hi))


class TestProlongation:
    def test_constant(self):
        c = np.full((4, 4, 4), 2.5)
        f = prolong_linear(c, 2)
        assert f.shape == (8, 8, 8)
        np.testing.assert_allclose(f, 2.5)

    def test_conservative(self):
        rng = np.random.default_rng(1)
        c = rng.random((6, 6, 6))
        f = prolong_linear(c, 2)
        back = block_average(f, 2)
        np.testing.assert_allclose(back, c, atol=1e-14)

    @pytest.mark.parametrize("r", [2, 4])
    def test_conservative_other_factors(self, r):
        rng = np.random.default_rng(2)
        c = rng.random((4, 4, 4))
        back = block_average(prolong_linear(c, r), r)
        np.testing.assert_allclose(back, c, atol=1e-14)

    def test_linear_profile_recovered(self):
        # interior of a linear ramp prolongs exactly
        x = np.arange(6)[:, None, None] * np.ones((1, 6, 6))
        f = prolong_linear(x, 2)
        # fine cell j sits at parent (j // 2) with offset +-1/4 parent cells:
        # value = j/2 - 1/4 on the linear ramp
        expected = np.arange(12)[:, None, None] / 2.0 - 0.25
        np.testing.assert_allclose(
            f[2:-2], np.broadcast_to(expected, (12, 12, 12))[2:-2], atol=1e-12
        )

    def test_r1_copy(self):
        c = np.random.default_rng(3).random((4, 4, 4))
        f = prolong_linear(c, 1)
        np.testing.assert_array_equal(f, c)
        f[0, 0, 0] = 99
        assert c[0, 0, 0] != 99

    def test_prolong_boxes_cut_the_full_prolongation(self):
        """The box-wise operator the hierarchy runs samples exactly the
        whole-array definition, wherever the box sits."""
        c = np.random.default_rng(4).random((6, 6, 6))
        full = prolong_linear(c, 2)
        sub = np.empty((4, 4, 4))
        prolong_boxes([c], None, 1.0, [False], (0, 0, 0), 2,
                      [sub], (3, 2, 5), [((3, 2, 5), (7, 6, 9))])
        np.testing.assert_array_equal(sub, full[3:7, 2:6, 5:9])

    def test_time_interpolate(self):
        old = np.zeros((2, 2, 2))
        new = np.ones((2, 2, 2))
        np.testing.assert_allclose(time_interpolate(old, new, 0.25), 0.25)
        np.testing.assert_allclose(time_interpolate(old, new, 1.5), 1.0)  # clipped


class TestBlockAverage:
    def test_mean(self):
        f = np.arange(8.0).reshape(2, 2, 2)
        c = block_average(f, 2)
        assert c.shape == (1, 1, 1)
        assert c[0, 0, 0] == f.mean()

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            block_average(np.zeros((3, 4, 4)), 2)
