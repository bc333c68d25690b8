"""Pinned detection digest.

A refactor of the exact core must leave every detection unchanged.  The
digest hashes the sorted (system index, rule id, 1-based sigma, pretty
integral) records over a fixed-seed corpus: three samples from every
SAMPLERS_2D / SAMPLERS_3D entry and the first 50 random systems of
acceptance criterion 4 (which must detect nothing).  A change to the pinned
value means detection output changed and must be justified.
"""

import hashlib
import random

from lvfi import expr as ex
from lvfi.catalog2d import SAMPLERS_2D, detect2d
from lvfi.catalog3d import SAMPLERS_3D, detect3d
from lvfi.model import make_system

from conftest import rand_fraction

PINNED = "b9ea5641593968344a4a77e1d33f7df73753138474e3dd0b049b82156e452ee5"
SAMPLES_PER_RULE = 3
NEGATIVES = 50


def _corpus():
    rng = random.Random(2718)
    samplers = sorted(SAMPLERS_2D.items()) + sorted(SAMPLERS_3D.items())
    for _, sampler in samplers:
        for _ in range(SAMPLES_PER_RULE):
            yield sampler(rng)
    rng = random.Random(404)  # the criterion-4 negative-control stream
    for k in range(NEGATIVES):
        dim = 2 if k % 2 == 0 else 3
        yield make_system(
            b=tuple(rand_fraction(rng) for _ in range(dim)),
            A=tuple(
                tuple(rand_fraction(rng) for _ in range(dim)) for _ in range(dim)
            ),
            e=tuple(rand_fraction(rng) for _ in range(dim)),
        )


def detection_digest() -> str:
    records = []
    for k, s in enumerate(_corpus()):
        dets = detect2d(s) if s.dim == 2 else detect3d(s)
        for d in dets:
            sigma = ",".join(str(i + 1) for i in d.sigma)
            records.append(f"{k}|{d.rule_id}|{sigma}|{ex.pretty(d.integral)}")
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


def test_detection_digest_is_pinned():
    assert detection_digest() == PINNED
