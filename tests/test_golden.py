"""Golden outputs: the preset experiments and the solvers at their defaults.

Each case runs ``cli.main`` in this process and pins the sha256 of the CSV it
writes, so a change that moves any digit of these outputs fails here.  The
digits depend on numpy's and scipy's special functions and on the platform's
floating point, so the hashes hold on the stack CI pins: numpy 2.4.x, scipy
1.17.x on x86-64.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from fwerstream.cli import main

STACK = (np.__version__.split(".")[:2], scipy.__version__.split(".")[:2], platform.machine())
PINNED = (["2", "4"], ["1", "17"], "x86_64")

GOLDEN = {
    "fig1": (["experiment", "--preset", "fig1", "--trials", "50", "--seed", "1"],
             "79b1edbe3b7ba3d28417decf6a811afb6a9eaa654a722bbf542844eda91b76f8"),
    "fig2": (["experiment", "--preset", "fig2", "--trials", "20", "--seed", "2"],
             "c7290515507b2061090d18ac03e3693d657e0a8239e42852def02ec4d15cd82b"),
    "optimal-q": (["solve", "optimal-q"], "0ea6931c77c1b0c3b5ab8a54528ed1ba6a73c046d88f79a593fab36e97a0c926"),
    "cstar": (["solve", "cstar"], "77e081fc16766275bab66e05e52794288057790594f397a49eaa67938666f0ed"),
    "optimal-gamma": (["solve", "optimal-gamma"], "3f7765199239edf07cdffd99af283731362a9c633ed0f5efa729a6e12d8aaa35"),
    "expected-discoveries": (["solve", "expected-discoveries"],
                             "7165f9c2331a0e79da09cd8d80990e70f806cf4b1f6fbed755841236c5396907"),
}


@pytest.mark.skipif(STACK != PINNED, reason=f"golden hashes hold on numpy 2.4.x, scipy 1.17.x and x86-64; "
                                            f"this is numpy {np.__version__}, scipy {scipy.__version__} "
                                            f"on {platform.machine()}")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_matches_its_golden_hash(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
