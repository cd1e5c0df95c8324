import random
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from treehost import parse_edge_list, root_at

# Hypothesis caches what it scans of local source even without an example
# database; keep that out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "treehost-hypothesis"))

FIG_EDGES = """\
r u
r v
r w
u 1
u 2
u 3
u 4
v 5
w 6
w 7
w x
x 8
x 9
"""

# Dense ids in first-appearance order of FIG_EDGES.
FIG_IDS = {"r": 0, "u": 1, "v": 2, "w": 3, "1": 4, "2": 5, "3": 6, "4": 7,
           "5": 8, "6": 9, "7": 10, "x": 11, "8": 12, "9": 13}


@pytest.fixture
def fig_text():
    return FIG_EDGES


@pytest.fixture
def fig_demand():
    return root_at(parse_edge_list(FIG_EDGES), 0)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
