"""The test-set array: every form of ``config.build_test_set`` fills one
C-ordered (F, n_nodes) block whose rows equal, bit for bit, the values the
per-function builders give (kept in ``support`` as oracles), and the
``TestSet`` type refuses an empty, ragged, mis-labelled or non-finite set,
and one whose squared norms overflow."""
import numpy as np
import pytest

from grouplab.catalog import build_catalog, peter_weyl_basis
from grouplab.config import build_test_set
from grouplab.groups import make_group
from grouplab.hilbert import TestSet, coefficients
from grouplab.spec import ConfigError
from support import (
    functions_to_csv,
    l2_to_csv,
    oracle_function,
    oracle_members,
    oracle_random_functions,
    oracle_samples,
)

GROUPS = ["circle:64", "su2:j=1.5", "sym:4"]


def _same_bits(test_set: TestSet, fns) -> bool:
    want = np.array([f.values for f in fns])
    return test_set.values.dtype == want.dtype and test_set.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", GROUPS)
def test_every_form_fills_rows_bit_equal_to_the_per_function_builders(tmp_path, spec):
    group = make_group(spec)
    family = peter_weyl_basis(build_catalog(group))
    top = family.blocks[-1]

    ts = build_test_set("random:count=5,seed=7", group, family)
    assert ts.values.shape == (5, group.n_nodes) and ts.values.flags.c_contiguous
    assert _same_bits(ts, oracle_random_functions(group, 7, 5))

    one = tmp_path / "one.csv"
    l2_to_csv(oracle_random_functions(group, 3, 2)[1], one)
    entries = [
        "random:seed=11",
        f"member:block={len(family.blocks) - 1},i=0,j={top.size - 1}",
        "random:seed=0",
        f"samples:{one}",
        "member:block=0,i=0,j=0",
    ]
    ts = build_test_set(entries, group, family)
    assert _same_bits(ts, [oracle_function(e, group, family) for e in entries])

    ts = build_test_set("members", group, family)
    assert _same_bits(ts, oracle_members(family))

    many = tmp_path / "many.csv"
    functions_to_csv(["b", "a", "c"], oracle_random_functions(group, 5, 3), many)
    ts = build_test_set(f"samples:{many}", group)
    assert ts.ids == ("b", "a", "c")
    assert _same_bits(ts, oracle_samples(group, many, named=True).values())


def test_samples_rows_follow_first_appearance_when_functions_interleave(tmp_path):
    group = make_group("zn:3")
    path = tmp_path / "set.csv"
    path.write_text("fn,node,re,im\ng,2,3,0\nf,0,1,0\ng,0,4,0\nf,1,2,0\nf,2,5,0\ng,1,6,0\n")
    ts = build_test_set(f"samples:{path}", group)
    assert ts.ids == ("g", "f")
    assert np.array_equal(ts.values, [[4, 6, 3], [1, 2, 5]])


def test_coefficients_of_the_array_equal_the_per_row_calls():
    group = make_group("sym:4")
    family = peter_weyl_basis(build_catalog(group))
    ts = build_test_set("random:count=4,seed=2", group)
    stacked = coefficients(ts, family)
    assert stacked.shape == (4, family.n_members)
    for k in range(len(ts)):
        assert np.allclose(stacked[k], coefficients(ts.function(k), family), rtol=0, atol=1e-14)


def test_test_set_type_enforces_its_conditions():
    group = make_group("zn:4")
    values = np.ones((2, 4))
    ts = TestSet(group, values)
    assert ts.ids == ("fn:0", "fn:1") and ts.descriptor == "explicit"
    assert ts.values.dtype == np.complex128 and ts.values.flags.c_contiguous
    assert np.array_equal(ts.norm_sq(), [ts.function(k).norm_sq() for k in range(2)])
    with pytest.raises(ValueError, match="a test set must be nonempty"):
        TestSet(group, np.empty((0, 4)))
    with pytest.raises(ValueError, match=r"needs \(F, 4\) node values"):
        TestSet(group, np.ones(4))
    with pytest.raises(ValueError, match=r"needs \(F, 4\) node values"):
        TestSet(group, np.ones((2, 5)))
    with pytest.raises(ValueError, match="3 function ids for 2 test functions"):
        TestSet(group, values, ids=["a", "b", "c"])
    bad = values.astype(complex)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TestSet(group, bad)
    # finite values whose squares overflow, refused with no RuntimeWarning
    with pytest.raises(ConfigError, match="the squared norm of test function 'b' overflows"):
        TestSet(group, [[1, 1, 1, 1], [1e200, 0, 0, 0]], ids=["a", "b"])
