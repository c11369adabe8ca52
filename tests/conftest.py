import pytest

import kronnet.groups as groups_mod
import kronnet.samplers as samplers_mod
from kronnet import make_config


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "tail_cells(cells): the tail_cells fixture's value of groups._TAIL_CELLS"
    )


@pytest.fixture
def worked_cfg():
    """2x2 parameter matrix, 3 levels, 2 untied: the worked example config."""
    return make_config([[0.9, 0.7], [0.5, 0.3]], 3, 2)


@pytest.fixture
def theta3_cfg():
    """3x3 parameter matrix, 2 levels, 1 untied."""
    rows = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    return make_config(rows, 2, 1)


@pytest.fixture
def group_every_grid(monkeypatch):
    """``gp`` groups level 0 on untied grids of every size, so grids small
    enough to check cell by cell take the grouped path."""
    monkeypatch.setattr(samplers_mod, "_GROUP_CELLS", 0)


@pytest.fixture
def tail_cells(request, monkeypatch):
    """``GridUnranker`` tabulates the last levels' sub-grid up to the cell
    count a case's ``tail_cells`` mark gives, so small grids unrank their
    leading levels one by one too; unmarked cases keep the default."""
    mark = request.node.get_closest_marker("tail_cells")
    if mark is not None:
        monkeypatch.setattr(groups_mod, "_TAIL_CELLS", mark.args[0])
