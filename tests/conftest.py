"""Shared fixtures: grid construction is the slow part of the suite, so
the meshes are built once per session."""

import dataclasses

import pytest

from repro.grids import IcosahedralGrid, TripolarGrid


@pytest.fixture(scope="session")
def icos3():
    """Level-3 icosahedral grid: 642 cells (~890 km spacing)."""
    return IcosahedralGrid.build(3)


@pytest.fixture(scope="session")
def icos4():
    """Level-4 icosahedral grid: 2562 cells (~450 km spacing)."""
    return IcosahedralGrid.build(4)


@pytest.fixture(scope="session")
def tripolar_small():
    """96 x 64 tripolar ocean grid with 20 levels."""
    return TripolarGrid.build(96, 64, n_levels=20)


@pytest.fixture
def record_tiles():
    """``record_tiles(space) -> (twin, launches)``: ``twin`` is ``space``
    with a ``run`` override appending, per launch, the shape of every tile
    it ran (the launch's tile record is the tiles themselves)."""
    def wrap(space):
        launches = []

        class Recording(type(space)):
            def run(self, functor, tiles, pure=False):
                launches.append([tuple(len(ix) for ix in tile) for tile in tiles])
                return super().run(functor, tiles, pure)

        fields = {f.name: getattr(space, f.name) for f in dataclasses.fields(space)}
        return Recording(**fields), launches

    return wrap
