"""The corpus and the printed-string digest of tests/test_digest.py's PINNED,
with no import beyond the standard library and lvfi, whose import loads no
numpy.  Run it to check PINNED on any interpreter that runs lvfi, even one
with neither numpy nor pytest:

    python3 tests/digest_corpus.py

It prints the digest, and exits 1 when it is not PINNED.
"""

import hashlib
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from lvfi import expr as ex  # noqa: E402
from lvfi.catalog2d import SAMPLERS_2D, detect2d  # noqa: E402
from lvfi.catalog3d import SAMPLERS_3D, detect3d  # noqa: E402
from lvfi.model import make_system  # noqa: E402

SAMPLES_PER_RULE = 3
NEGATIVES = 50


def rand_fraction(rng, nonzero=False, num=6, den=3):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if not nonzero or v != 0:
            return v


def corpus():
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
    for k, s in enumerate(corpus()):
        dets = detect2d(s) if s.dim == 2 else detect3d(s)
        for d in dets:
            sigma = ",".join(str(i + 1) for i in d.sigma)
            records.append(f"{k}|{d.rule_id}|{sigma}|{ex.pretty(d.integral)}")
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


if __name__ == "__main__":
    pinned = re.search(r'^PINNED = "(\w+)"$', (HERE / "test_digest.py").read_text(), re.M)[1]
    digest = detection_digest()
    print(digest, "PINNED" if digest == pinned else f"differs from PINNED {pinned}")
    sys.exit(digest != pinned)
