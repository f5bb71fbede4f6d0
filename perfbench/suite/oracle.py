"""Correctness oracle: every reported volume is checked by independent
routes, and every part vector against its range and the eqn-(1)
ceiling.  Each function returns a list of problems (empty = correct)."""

from __future__ import annotations

import numpy as np


def check_parts(matrix, parts, nparts: int, eps: float = 0.03) -> list[str]:
    """Parts in ``[0, nparts)`` and part sizes within the eqn-(1)
    ceiling ``max(floor((1 + eps) nnz / nparts), ceil(nnz / nparts))``."""
    from repro.core.volume import max_allowed_part_size

    parts = np.asarray(parts)
    if parts.shape != (matrix.nnz,):
        return [f"parts has shape {parts.shape}, want ({matrix.nnz},)"]
    if parts.size and (parts.min() < 0 or parts.max() >= nparts):
        return [f"parts outside [0, {nparts}): "
                f"min {parts.min()}, max {parts.max()}"]
    sizes = np.bincount(parts, minlength=nparts)
    ceiling = max_allowed_part_size(matrix.nnz, nparts, eps)
    if sizes.max() > ceiling:
        return [f"largest part {sizes.max()} exceeds ceiling {ceiling}"]
    return []


def check_volume(matrix, parts, nparts: int, reported: int,
                 medium_grain: bool = False) -> list[str]:
    """``reported`` must equal the matrix volume (eqn (3)), the words
    the simulated BSP SpMV sends, and — for a 2-way medium-grain
    result — the λ−1 cut of the medium-grain hypergraph (eqn (6)).
    ``parts`` must already have passed :func:`check_parts`."""
    from repro.core.volume import communication_volume
    from repro.spmv.simulate import simulate_spmv

    routes = {
        "communication_volume": communication_volume(matrix, parts),
        "simulate_spmv words": simulate_spmv(matrix, parts, nparts).volume,
    }
    if medium_grain and nparts == 2:
        from repro.core.medium_grain import build_medium_grain
        from repro.core.split import split_from_bipartition
        from repro.hypergraph.metrics import connectivity_volume

        instance = build_medium_grain(
            split_from_bipartition(matrix, parts, 0)
        )
        routes["medium-grain lambda-1"] = connectivity_volume(
            instance.hypergraph, instance.vertex_parts_from_nonzero(parts)
        )
    return [
        f"reported volume {reported} != {route} {value}"
        for route, value in routes.items()
        if int(value) != int(reported)
    ]


def check_answer(matrix, parts, nparts: int, reported: int,
                 medium_grain: bool = False, eps: float = 0.03) -> list[str]:
    """The full per-operation oracle."""
    return check_parts(matrix, parts, nparts, eps) or check_volume(
        matrix, parts, nparts, reported, medium_grain
    )
