import pytest

import extbound as eb


@pytest.fixture(scope="session")
def corpora():
    return {name: eb.fixture_corpus(name) for name in eb.FIXTURE_NAMES}


@pytest.fixture(scope="session")
def a2(corpora):
    return corpora["A2"].algebra


@pytest.fixture(scope="session")
def loop2(corpora):
    return corpora["LOOP2"].algebra


@pytest.fixture(scope="session")
def nak3(corpora):
    return corpora["NAK3"].algebra


@pytest.fixture(scope="session")
def cnak2(corpora):
    return corpora["CNAK2"].algebra


def _reference_hom_basis(source, target):
    """Hom(source, target) as it was built before the rows went straight into
    an Echelon: the dense intertwining system as a checked Matrix, its
    canonical kernel read off rref, and every basis map re-checked by the
    ModuleMap constructor.  Returns the basis vectors and the maps."""
    alg = source.algebra
    fld = alg.field
    sizes = [target.dims[v] * source.dims[v] for v in range(alg.vertex_count)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    unknowns = offsets[-1]
    rows = []
    for a, xs, xt in zip(alg.quiver.arrows, source.arrow_matrices, target.arrow_matrices):
        s, t = a.source, a.target
        for r in range(target.dims[t]):
            for c in range(source.dims[s]):
                row = [fld.zero] * unknowns
                for k in range(source.dims[t]):
                    idx = offsets[t] + r * source.dims[t] + k
                    row[idx] = fld.add(row[idx], xs.entry(k, c))
                for k in range(target.dims[s]):
                    idx = offsets[s] + k * source.dims[s] + c
                    row[idx] = fld.sub(row[idx], xt.entry(r, k))
                rows.append(row)
    system = eb.Matrix.from_rows(fld, rows) if rows else eb.Matrix.zeros(fld, 0, unknowns)
    red, pivots, _ = eb.rref(system)
    vectors = []
    for f in (c for c in range(unknowns) if c not in pivots):
        vec = [fld.zero] * unknowns
        vec[f] = fld.one
        for row_idx, pc in enumerate(pivots):
            vec[pc] = fld.neg(red.entry(row_idx, f))
        vectors.append(tuple(vec))
    maps = [eb.ModuleMap(source, target, tuple(
        eb.Matrix(fld, target.dims[v], source.dims[v], vec[offsets[v]:offsets[v + 1]])
        for v in range(alg.vertex_count))) for vec in vectors]
    return vectors, maps


@pytest.fixture(scope="session")
def assert_hom_basis_matches_reference():
    """Checks that hom_basis, computed afresh, gives the reference's vectors
    in the reference's order, with the same entry types, and equal maps."""
    def check(source, target):
        source.algebra._hom_memo.pop((source, target), None)
        basis = eb.hom_basis(source, target)
        vectors, maps = _reference_hom_basis(source, target)
        assert [f.flatten() for f in basis] == vectors
        assert [[type(x) for x in f.flatten()] for f in basis] == \
            [[type(x) for x in vec] for vec in vectors]
        assert [f.vertex_maps for f in basis] == [f.vertex_maps for f in maps]
        assert all(f.source is source and f.target is target for f in basis)
    return check
