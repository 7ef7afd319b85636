"""Structural identity battery: pointwise residuals and integration by parts."""

import numpy as np
import pytest

from hperim.graphs import AlphaBetaGraph
from hperim.identities import (
    ibp_residuals,
    point_identity_residuals,
    random_smooth_field,
    random_supported_field,
)
from hperim.quadrature import QuadratureSpec

EXPECTED_ROWS = {
    "mean-curvature-skew",
    "curvature-square",
    "z-obar",
    "coefficient-x1",
    "coefficient-nu",
    "reconstruction",
    "tangential-gradient",
}


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (0.5, -3.0)])
def test_pointwise_residuals_are_tiny(alpha, beta):
    rows = point_identity_residuals(AlphaBetaGraph(alpha, beta), n=400, seed=3)
    assert {row["name"] for row in rows} == EXPECTED_ROWS
    for row in rows:
        assert row["residual"] < 1e-9, (row["name"], row["residual"])
        assert row["samples"] == 400
        assert len(row["worst_point"]) == 2


def test_residuals_are_deterministic_by_seed():
    graph = AlphaBetaGraph(1.0, 0.0)
    a = point_identity_residuals(graph, n=100, seed=7)
    b = point_identity_residuals(graph, n=100, seed=7)
    assert a == b
    c = point_identity_residuals(graph, n=100, seed=8)
    assert any(x["worst_point"] != y["worst_point"] for x, y in zip(a, c))


def test_zero_samples_is_vacuous():
    rows = point_identity_residuals(AlphaBetaGraph(1.0, 0.0), n=0)
    for row in rows:
        assert row["residual"] == 0.0
        assert row["worst_point"] is None
        assert row["samples"] == 0


def test_integration_by_parts_residuals_within_budget():
    graph = AlphaBetaGraph(1.5, 0.5)
    rows = ibp_residuals(graph, (-2.0, 2.0), (-2.0, 2.0), n=3, seed=11)
    assert len(rows) == 6  # two identities per sample
    names = {row["name"] for row in rows}
    assert names == {"ibp-z", "ibp-t"}
    for row in rows:
        assert row["converged"], row
        assert row["residual"] <= row["budget"], row


def test_unconverged_integrals_mark_their_rows():
    # one subdivision cannot meet the tolerance; the rows must say so instead
    # of passing on the budget their own wide error estimates make
    rows = ibp_residuals(AlphaBetaGraph(1.0, 0.0), n=2,
                         spec=QuadratureSpec(max_subdivisions=1))
    assert len(rows) == 4
    for row in rows:
        assert row["converged"] is False, row


def test_random_field_generators():
    rng = np.random.default_rng(0)
    f = random_smooth_field(rng)
    j = f.jet(0.3, -0.2, 0.1)
    assert np.isfinite(j.val) and np.all(np.isfinite(j.grad))

    g = random_supported_field(rng, (-2.0, 2.0), (-2.0, 2.0))
    # vanishes identically on and outside the box edges
    edge = np.array([-2.0, 2.0])
    assert np.all(g.value(0.0, edge, 0.0) == 0.0)
    assert np.all(g.value(0.0, 0.0, edge) == 0.0)
    assert np.all(g.value(0.5, np.array([-3.0, 3.0]), 0.0) == 0.0)
