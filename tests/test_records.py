"""The result records are namedtuples with fixed names and field orders.

Every producer builds its record positionally and every caller reads it by
name (as tests/test_algebra.py, test_kw.py, test_verma.py and
test_analysis.py do), so a field order that drifted from its producer's
arguments would put values under the wrong names.  Each record's _fields
is pinned here.
"""

import pytest

import _series_oracle
from glmn import algebra, kw, verma

FIELDS = [
    (algebra.CharacterClass,
     ("semisimple", "borel_vanishing", "nplus_vanishing", "standard_levi", "levi_set")),
    (verma.SimplicityPolynomials, ("f_formula", "f0", "f1")),
    (kw.CharacterDecomposition, ("chi", "chi_s", "chi_n")),
    (kw.LeviData, ("phi_prime", "levi_prime", "levi", "nilradical", "n_even", "n_odd")),
    (kw.PhiPrimeOrder, ("order", "steps")),
    (_series_oracle.CompositionSeries, ("chain", "factors")),
]


@pytest.mark.parametrize("record,fields", FIELDS, ids=[r.__name__ for r, _ in FIELDS])
def test_record_fields_are_pinned(record, fields):
    assert record._fields == fields
    assert record(*fields) == fields
