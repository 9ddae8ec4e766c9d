import hashlib
import math
import re

import pytest

from temporal_range.svgplot import bar_chart, line_chart

# Hashes of the charts as drawn before bar_chart and line_chart shared their
# y-axis and marker code; a drawing change must update them on purpose.
CASES = {
    "bar_marker_before_first": (
        bar_chart, [0, 1, 2, 3], [0.5, 2.0, 1.25, 0.0], -1.5,
        "b23b77a894757f0544022ed71b979113f64c0f5fcb2eb6e199dddb49882e14d6"),
    "bar_marker_after_last": (
        bar_chart, [0, 1, 2, 3], [0.5, 2.0, 1.25, 0.0], 7.25,
        "8dc57910da2ac31a8b9569035023c58438d14db8d5a9826cee16f1e3a3511ba3"),
    "bar_single_point": (
        bar_chart, [3], [0.7], 3.0,
        "e203722a34ad185b97b7ab6a73f7b194eebb0d30a24482d768cf3026b50bcbb4"),
    "bar_nan_height": (
        bar_chart, list(range(12)), [1.0, math.nan] + [0.1 * i for i in range(10)], 4.5,
        "c7e3ec872b98adb03b0a60b58cceebe2b694a9ede1fe37f1200cab9529d4ac74"),
    "bar_all_zero_no_marker": (
        bar_chart, [0, 1, 2], [0.0, 0.0, 0.0], None,
        "727cce12331a20da13fd8ce13d730f86e657a58a45c73a1c822d6e04c8651d23"),
    "line_marker_before_first": (
        line_chart, [1, 2, 4, 8], [0.25, 0.5, 1.0, 1.0], 0.5,
        "0b812a1a2fd0d1165cb691e01caf08e1d4b9ded7ddee6ee4dd7f8885261a1224"),
    "line_marker_after_last": (
        line_chart, [1, 2, 4, 8], [0.25, 0.5, 1.0, 1.0], 9.0,
        "e0b426fe1b8879b49d79472ead62ff8469f42bfd9b5e1c1f586cc109a6cc7a7c"),
    "line_marker_between": (
        line_chart, [1, 2, 4, 8], [0.25, 0.5, 1.0, 1.0], 3.0,
        "3734fc1eeee22cb2c30e6b646901a1a786bda8347ef959e09d9e1c7eae126263"),
    # Redrawn on purpose: the marker now sits on the lone point (x = 340),
    # not at the left axis (x = 60).
    "line_single_point": (
        line_chart, [5], [0.8], 5.0,
        "867de9c271c5fc0c29ad1e9d4e6a8788d2c292fac4485fdf0741e7f73e3d7564"),
    "line_nan_value": (
        line_chart, [1, 2, 3], [0.5, math.nan, 1.5], None,
        "eac45351668853e1478363e26a121f4cd85686fbd1eae3e0517cfa8ea53d74c5"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_markup_is_pinned(name):
    chart, xs, ys, marker, want = CASES[name]
    svg = chart(xs, ys, marker_x=marker, title="t", xlabel="x", ylabel="y",
                comment="c")
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == want


def test_marker_of_a_one_point_line_sits_on_the_point():
    svg = line_chart([5], [0.8], marker_x=5.0)
    point = re.search(r'<circle cx="([^"]+)"', svg).group(1)
    marker = re.search(r'<line x1="([^"]+)"[^>]*stroke="crimson"', svg).group(1)
    assert point == marker == "340.000"
