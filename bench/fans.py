"""Fan inputs for the benchmark and the answers known from their JSON alone.

Weighted projective spaces are generated here, nothing is downloaded:
P(1,...,1,k) in rank n has the n unit vectors plus (-1,...,-1,-k) as
rays (the layout of the bundled p112) and every n-subset of the rays as
a maximal cone.  Its maximal cones have multiplicity 1 or k, so the
Hilbert bases grow with k while the flag count stays n! * (n+1).
"""

from __future__ import annotations

import json
import math
from itertools import combinations

# P(1,1,k) for a few k <= 20 and P(1,1,1,k) up to and including 27.
WPS_WEIGHTS = ((1, 1, 2), (1, 1, 7), (1, 1, 20), (1, 1, 1, 3), (1, 1, 1, 9), (1, 1, 1, 27))


def wps_fan(weights) -> dict:
    """Fan JSON of the weighted projective space P(1,...,1,k)."""
    *ones, k = weights
    if not ones or any(w != 1 for w in ones) or k < 1:
        raise ValueError("only P(1,...,1,k) is generated")
    n = len(ones)
    rays = [[int(i == j) for i in range(n)] for j in range(n)] + [[-1] * (n - 1) + [-k]]
    max_cones = [[i for i in range(n + 1) if i != s] for s in range(n + 1)]
    return {"name": "wps_" + "_".join(map(str, weights)), "dim": n, "rays": rays, "max_cones": max_cones}


def write_fan(doc: dict, directory) -> str:
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def nonzero_cones(doc: dict):
    """Ray sets of the nonzero cones of a simplicial fan."""
    out = set()
    for cone in doc["max_cones"]:
        for k in range(1, len(cone) + 1):
            out.update(frozenset(c) for c in combinations(cone, k))
    return out


def maximal_flag_count(doc: dict) -> int:
    """n! flags end in each maximal cone of a simplicial fan."""
    n = doc["dim"]
    if any(len(c) != n for c in doc["max_cones"]):
        raise ValueError(f"{doc.get('name')}: known answers assume a simplicial fan")
    return math.factorial(n) * len(doc["max_cones"])


def expected_mesh_counts(doc: dict, res: int):
    """(vertices, faces) of the sphere mesh and of the boundary mesh.

    In rank 3 both meshes triangulate a 2-sphere (Euler characteristic
    2, three edges per two faces), so V = 2 + F/2; in rank 2 each mesh
    is one closed polygon.
    """
    flags = maximal_flag_count(doc)
    if doc["dim"] == 2:
        return (flags * res, 1), (len(nonzero_cones(doc)), 1)
    faces = flags * res * res
    return (2 + faces // 2, faces), (len(nonzero_cones(doc)), flags)
