"""The negative control of the compensated_sum plugin, run only under it
(tests/test_tooling.py passes this file and -p compensated_sum to a
pytest subprocess; its name keeps it out of the plain tier-1 run).

conftest.simplex_samples, the sampler of the shared-face cross-check
(conftest.shared_face_gaps), normalizes each sample by a left-to-right
sum.  A copy that calls sum(raw) instead gives the same samples on
Python 3.10 and 3.11, but under the plugin, as under Python 3.12, some
of them move: so a float sum() left in a sampled path would move the
goldens under the plugin, and the standing check would fail.
"""

import builtins
import random

from compensated_sum import compensated_sum
from conftest import simplex_samples


def _simplex_samples_by_sum(rng, dim, count):
    """conftest.simplex_samples with its left-to-right sum replaced by
    sum(raw)."""
    width = dim + 1
    out = [tuple(float(j == i) for j in range(width)) for i in range(1, width)][:count]
    draw = rng.random
    raws = [draw() for _ in range((count - len(out)) * width)]
    for p, raw in enumerate(zip(*[iter(raws)] * width)):
        if dim >= 2 and p % 3 == 2:
            raw = (0.0, *raw[1:])
        total = sum(raw)
        out.append(tuple([x / total for x in raw]))
    return out


def test_plugin_is_installed():
    assert builtins.sum is compensated_sum


def test_sum_in_simplex_samples_moves_them():
    """The 25 samples of a 4-simplex at seed 0, the count of the
    shared-face cross-check: the sum() copy's differ from the
    left-to-right sampler's."""
    left_to_right = simplex_samples(random.Random(0), 4, 25)
    copy = _simplex_samples_by_sum(random.Random(0), 4, 25)
    assert len(copy) == len(left_to_right) == 25
    assert copy != left_to_right
