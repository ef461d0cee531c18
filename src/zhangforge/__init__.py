"""Exact verification laboratory for projection-body inequalities of convex polytopes."""

from .polytope import (
    Direction,
    Interval,
    MeasureValue,
    Polytope,
    axis_direction,
    difference_body,
    intersect,
    make_polytope,
    max_section_anchor,
    minkowski_sum,
    polar_projection_body,
    project_drop_last,
    projection_volume,
    slice_at_height,
    transform,
    translate,
    vertical_section,
    volume,
)

__all__ = [
    "Direction",
    "Interval",
    "MeasureValue",
    "Polytope",
    "axis_direction",
    "difference_body",
    "intersect",
    "make_polytope",
    "max_section_anchor",
    "minkowski_sum",
    "polar_projection_body",
    "project_drop_last",
    "projection_volume",
    "slice_at_height",
    "transform",
    "translate",
    "vertical_section",
    "volume",
]

__version__ = "0.1.0"
